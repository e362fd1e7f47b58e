package repro

import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import repro.core.{Candidate, Runner}
import repro.lake.{LakeTable, Scenario, ScenarioGen, ScenarioSpec, TaskKind}

/** Pins the front end's output bits: the lake `ScenarioGen.scenario`
  * generates, the candidates discovery finds and the profiles computed for
  * them, for the two benchmark scenarios at seed 2023. The digests were
  * recorded from the single-threaded front end; the parallel one must give
  * the same tables, cells, candidates and profile bits.
  */
class FrontEndDigestSpec extends SparkSpec {
  import FrontEndDigestSpec._

  /** `metambench`'s `table2` spec: Table II's Crime row (seed + 3). */
  private val crime = ScenarioSpec("crime", TaskKind.Causal, rows = 350, nSignals = 10, dupsPerPlanted = 1,
    nIrrelevant = 350, nIrrelevantDups = 180, nTopicIrrelevant = 150, nErroneous = 250, seed = 2023 + 3)

  /** `metambench`'s `search_paper_scale` spec (seed + 7). */
  private val paper = ScenarioSpec("paper", TaskKind.Causal, rows = 100, nSignals = 10, dupsPerPlanted = 2,
    nIrrelevant = 1500, nIrrelevantDups = 800, nTopicIrrelevant = 700, nErroneous = 2000, seed = 2023 + 7)

  private def digests(spec: ScenarioSpec): (String, String, String) = {
    val s = ScenarioGen.scenario(spec)
    val (_, cands, profiles) = Runner.prepare(spark, s, minContainment = 0.03, maxHops = 1)
    (lakeDigest(s), candidatesDigest(cands), ProfileDigest.sha256(profiles))
  }

  test("the table2 scenario's lake, candidates and profiles keep their pinned digests") {
    assert(digests(crime) == (
      "c991a1e2840fcca0666d171bd8dcb39095bf19d98e26553f68f4bff85b8472a4",
      "df7f501c6a353fcc62c2e937f8dfda9499f5fcb1fce2f875b13280425fc2758f",
      "6b89539d73eedc1ef237ef670793bdfa4235c5ae6e5e220031df60c6f8a7f2f5",
    ))
  }

  test("the search_paper_scale scenario's lake, candidates and profiles keep their pinned digests") {
    assert(digests(paper) == (
      "e3fd6351996cc023e9cfc24fb2770d34fdc8b3c91ba425fc4671bc1840e2b2d4",
      "78ea0c0b3f738b94b49e39a644b5ee4a18e3f2d5c28de583a891ec8983babb47",
      "74b4b869364a8eb1cbb5f905eb4aef27f926082c8996fd1b6eae82fe3511aa06",
    ))
  }
}

object FrontEndDigestSpec {

  /** Writes strings and numbers length-prefixed, so no two sequences share a digest. */
  private final class Digest {
    private val md = MessageDigest.getInstance("SHA-256")
    private val word = ByteBuffer.allocate(4)

    def int(i: Int): Unit = { word.clear(); md.update(word.putInt(i).array()) }
    def str(s: String): Unit = { val b = s.getBytes(StandardCharsets.UTF_8); int(b.length); md.update(b) }
    def strs(ss: Seq[String]): Unit = { int(ss.length); ss.foreach(str) }
    def hex: String = md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** SHA-256 of the input's and every lake table's metadata and cells, in
    * lake order (a null cell is length −1).
    */
  def lakeDigest(s: Scenario): String = {
    val d = new Digest
    (s.input +: s.lake.tables).foreach { case LakeTable(m, columns) =>
      d.str(m.name); d.str(m.source); d.strs(m.keyCols); d.strs(m.vocabulary)
      d.int(columns.length)
      columns.foreach { case (name, cells) =>
        d.str(name)
        d.int(cells.length)
        cells.foreach(c => c.fold(d.int(-1))(d.str))
      }
    }
    d.hex
  }

  /** SHA-256 of every candidate's id, join path and value column, in order. */
  def candidatesDigest(cands: Seq[Candidate]): String = {
    val d = new Digest
    d.int(cands.length)
    cands.foreach { c =>
      d.int(c.id)
      d.int(c.edges.length)
      c.edges.foreach(e => d.strs(Seq(e.leftCol, e.rightTable, e.rightKeyCol)))
      d.str(c.valueCol)
    }
    d.hex
  }
}
