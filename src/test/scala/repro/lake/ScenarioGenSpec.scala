package repro.lake

import org.scalatest.funsuite.AnyFunSuite

import repro.util.Stats

class ScenarioGenSpec extends AnyFunSuite {

  private val spec = ScenarioSpec("toy", TaskKind.Causal, rows = 200, nSignals = 2, dupsPerPlanted = 1,
    nIrrelevant = 6, nIrrelevantDups = 3, nTopicIrrelevant = 2, nErroneous = 4, seed = 77)

  private lazy val s = ScenarioGen.scenario(spec)

  test("scenario generation is deterministic in the seed") {
    val s2 = ScenarioGen.scenario(spec)
    assert(s.input.column("outcome").toSeq == s2.input.column("outcome").toSeq)
    assert(s.lake.tables.map(_.meta.name) == s2.lake.tables.map(_.meta.name))
    val t = s.lake.tables.head
    assert(t.columns == s2.lake.tables.head.columns ||
      t.columns.map(_._2.toSeq) == s2.lake.tables.head.columns.map(_._2.toSeq))
  }

  test("different seeds give different data") {
    val s2 = ScenarioGen.scenario(spec.copy(seed = 78))
    assert(s.input.column("outcome").toSeq != s2.input.column("outcome").toSeq)
  }

  test("table count matches the spec") {
    assert(s.lake.size == spec.totalCandidates)
  }

  test("input table has key, base features and target") {
    assert(s.input.columnNames == Vector("key", "bf1", "bf2", "outcome"))
    assert(s.input.nRows == spec.rows)
  }

  test("planted tables carry a strong signal for the outcome") {
    val outcome = s.input.numeric("outcome")
    val planted = s.lake.table("toy_sig00")
    // Align by key: planted tables only cover a subset of keys.
    val keyIdx = s.input.column("key").zipWithIndex.collect { case (Some(k), i) => k -> i }.toMap
    val pKeys = planted.column("key")
    val pVals = planted.numeric("feat00")
    val xs = Array.fill[Option[Double]](spec.rows)(None)
    pKeys.indices.foreach(i => pKeys(i).flatMap(keyIdx.get).foreach(j => xs(j) = pVals(i)))
    assert(math.abs(Stats.pearson(xs, outcome)) > 0.4)
  }

  test("irrelevant tables are uncorrelated with the outcome") {
    val outcome = s.input.numeric("outcome")
    val irr = s.lake.table("toy_irr000")
    assert(math.abs(Stats.pearson(irr.numeric("metric000"), outcome)) < 0.2)
  }

  test("near-duplicates are close to their planted original") {
    val a = s.lake.table("toy_sig00")
    val b = s.lake.table("toy_sig00_dup0")
    // Both carry signal 0 with small noise → strong mutual correlation on shared keys.
    val aByKey = a.column("key").zip(a.numeric("feat00")).collect { case (Some(k), v) => k -> v }.toMap
    val pairs = b.column("key").zip(b.numeric("feat00")).collect {
      case (Some(k), Some(v)) if aByKey.get(k).exists(_.isDefined) => (aByKey(k).get, v)
    }
    assert(pairs.length > 50)
    assert(Stats.pearsonComplete(pairs.map(_._1), pairs.map(_._2)) > 0.8)
  }

  test("planted coverage is below full coverage") {
    val planted = s.lake.table("toy_sig00")
    assert(planted.nRows < spec.rows)
    assert(planted.nRows > (spec.rows * (ScenarioGen.PlantedCoverage - 0.15)).toInt)
  }

  test("erroneous tables mostly use foreign keys") {
    val err = s.lake.table("toy_err000")
    val realKeys = s.input.column("key").flatten.toSet
    val matched = err.column("key").flatten.count(realKeys.contains)
    assert(matched.toDouble / err.nRows < 0.2)
    assert(matched > 0) // some overlap so approximate discovery admits it
  }

  test("ground-truth map covers planted tables and their duplicates") {
    assert(s.tableSignal.keySet == Set("toy_sig00", "toy_sig01", "toy_sig00_dup0", "toy_sig01_dup0"))
    assert(s.tableSignal("toy_sig01_dup0") == 1)
  }

  test("signalOf resolves augmented column names") {
    assert(s.signalOf("aug_3__toy_sig01__feat01").contains(1))
    assert(s.signalOf("aug_9__toy_irr000__metric000").isEmpty)
  }

  test("classification target is balanced") {
    val c = ScenarioGen.scenario(spec.copy(kind = TaskKind.Classification))
    val y = c.input.numeric("target").flatten
    val pos = y.count(_ == 1.0)
    assert(math.abs(pos.toDouble / y.length - 0.5) < 0.1)
  }

  test("regression outcome lies in [0,1]") {
    val r = ScenarioGen.scenario(spec.copy(kind = TaskKind.Regression))
    val y = r.input.numeric("outcome").flatten
    assert(y.forall(v => v >= 0.0 && v <= 1.0))
    assert(y.max > 0.9 && y.min < 0.1)
  }

  test("tableII produces the six paper scenarios in order") {
    val all = ScenarioGen.tableII()
    assert(all.map(_.spec.name) == Vector("schools", "taxi", "crime", "housing", "pharmacy", "grocery"))
    assert(all.take(4).forall(_.spec.kind == TaskKind.Causal))
    assert(all.drop(4).forall(_.spec.kind == TaskKind.Classification))
  }

  test("schools scenario keeps the paper's ~60% erroneous share") {
    val schools = ScenarioGen.tableII().head
    val frac = schools.spec.nErroneous.toDouble / schools.spec.totalCandidates
    assert(frac > 0.55 && frac < 0.65)
  }

  test("entity linking scenario has ~185 candidates and a state table") {
    val e = ScenarioGen.entityLinking()
    assert(e.lake.size == 185)
    assert(e.lake.table("state_lookup").column("state").forall(_.isDefined))
    assert(e.groundTruthTables == Set("state_lookup"))
  }

  test("entity linking truth matches the KB") {
    val e = ScenarioGen.entityLinking()
    val task = e.task.asInstanceOf[repro.tasks.Tasks.EntityLinkingTask]
    val cities = e.input.column("city")
    task.truth.indices.foreach { i =>
      val entries = task.kb(cities(i).get)
      assert(entries.exists(_._1 == task.truth(i)))
    }
  }

  test("fair scenario: unfair features correlate with sensitive, fair ones do not") {
    val f = ScenarioGen.fairClassification()
    val sensByKey = f.input.column("key").zip(f.input.numeric("sensitive"))
      .collect { case (Some(k), Some(v)) => k -> v }.toMap
    def vsSensitive(table: String, col: String): Double = {
      val t = f.lake.table(table)
      val pairs = t.column("key").zip(t.numeric(col)).collect {
        case (Some(k), Some(v)) if sensByKey.contains(k) => (v, sensByKey(k))
      }
      Stats.pearsonComplete(pairs.map(_._1), pairs.map(_._2))
    }
    assert(math.abs(vsSensitive("credit_unfair00", "ufeat00")) > 0.8)
    assert(math.abs(vsSensitive("credit_fair00", "ffeat00")) < 0.2)
  }

  test("clustering scenario: ONI aligns with categories, satiety is noisy") {
    val c = ScenarioGen.clusteringScenario()
    val oni = c.lake.table("oni_scores").numeric("oni").flatten
    // Trimodal: values near 0, 2, 4.
    assert(oni.forall(v => Seq(0.0, 2.0, 4.0).exists(m => math.abs(v - m) < 0.5)))
    assert(c.lake.size == 8)
  }
}
