package repro.lake

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite

import repro.FrontEndDigestSpec.lakeDigest
import repro.tasks.Tasks.EntityLinkingTask
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

  /** SHA-256 of everything a scenario carries besides its tables: the
    * profile target column, the planted-table signals and, for entity
    * linking, the task's knowledge base and per-row truth.
    */
  private def restDigest(s: Scenario): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def str(x: String): Unit = md.update(s"${x.length}:$x".getBytes(StandardCharsets.UTF_8))
    str(s.profileTargetCol)
    s.tableSignal.toSeq.sorted.foreach { case (t, i) => str(t); str(i.toString) }
    s.task match {
      case e: EntityLinkingTask =>
        e.kb.toSeq.sortBy(_._1).foreach { case (m, es) => str(m); es.foreach { case (id, ctx) => str(id); str(ctx) } }
        e.truth.foreach(str)
      case _ =>
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** Every generator's output, pinned as (lake digest, rest digest): the
    * lake digest covers the input's and every lake table's metadata and
    * cells (`FrontEndDigestSpec.lakeDigest`). Recorded when each generator
    * still formatted its own cells; one shared table builder must give the
    * same bits.
    */
  test("every generator's tables, cells, signals and task data keep their pinned digests") {
    val semi = (0 until 3).map { i =>
      ScenarioGen.scenario(ScenarioSpec(s"semi$i", TaskKind.Causal, rows = 250, nSignals = 3, dupsPerPlanted = 1,
        nIrrelevant = 100, nIrrelevantDups = 40, nTopicIrrelevant = 10, nErroneous = 60, seed = 900 + i))
    }
    val scenarios = ScenarioGen.tableII() ++
      Vector(ScenarioGen.entityLinking(), ScenarioGen.fairClassification(), ScenarioGen.clusteringScenario()) ++
      semi ++ Vector(
        ScenarioGen.scenario(spec.copy(name = "toy_reg", kind = TaskKind.Regression)),
        ScenarioGen.scenario(spec.copy(name = "toy_cls", kind = TaskKind.Classification)),
      )
    assert(scenarios.map(s => s.spec.name -> (lakeDigest(s), restDigest(s))) == Vector(
      "schools" -> ("ed231306bed86a200ea7d1d5790d4c276d59b8bcf317f12726158b58793ab14a", "2656683a1be8771050ab92b3b84810f583cfdefccc6a22cc068804cefee8c2e8"),
      "taxi" -> ("4fd144bcde37623e2c24b817be3cb441f0a6885a1b000f04753823c6735a94a2", "4149017bf2b74a71cb32e8cce37c333163be59f165e405eed5f117fcee79a227"),
      "crime" -> ("c991a1e2840fcca0666d171bd8dcb39095bf19d98e26553f68f4bff85b8472a4", "147b4f8c3e03bc10374a695f599ff09efb27d56948cada6e257fc6e0bb06598f"),
      "housing" -> ("9e28bff7f14e0ce0116e5805b26f20c1c2db7bbcff1b133fc846ade99ee2cc34", "f1b48140e147e22271cf7a6998f296646e678588d9391ec135c888d67c44371f"),
      "pharmacy" -> ("cfa442d9e03b0ec5d31b722187ba06812228f46f0881a471494af3e69a93e590", "d6b9e00a6c376e970797123c6bf34d2084972ea561501557779147c5263ad11f"),
      "grocery" -> ("d2cb9849cc56a2c2e83694b1bfe4ce085546509905df6b816a191a1f4e87e451", "54ccc958bfbeb34c146789de20287e9b6c90cd4b67d5d577d13d6015750dd2ea"),
      "entity_linking" -> ("440b7ec99e2a1a2a9e4aaa1f2298e20a0f5fcd2738d016fc9ae153801ccbed1b", "e47b2c0ef76f083d5e39622185d3a8aac9502b35a98065372d42f8c756e85b27"),
      "fair_credit" -> ("a5bafb2db608d1874bdb5c382074045cdbbb39ffb3982fc64610f1d3b43ae472", "bd5b10d12f6966d9c52393cb2f72f8c0ec310eaac1f5f9830d5f7566f9df88ee"),
      "satiety_clustering" -> ("de69f13c98666df046bbcd7690b03a90cea49afd49707d8365806173a53ff686", "188ca2f5012f0080c25a73808cc849c3ea09d5b5507bc7354f685c2df1aa09c1"),
      "semi0" -> ("d32bf7ae02f37b569d2ebafd60de828613fd0468be8ac1fa61ab6975d04e0212", "485709c2485fa703e358d20c53632abc71dba91b07503c3400f8cce63cb17cf5"),
      "semi1" -> ("12679837651e706a0fbba0b41576ca6540616098ba2a2d9b1719c15d66f5d892", "d6c2cf569086a9c2a178c5748400a4ec3c83a3b8897ffd39184335434a2e3049"),
      "semi2" -> ("2e57542414d146a53c61906d4fe3e68b6b8d242477e2d3b2327dc6b694a93ebd", "9997db626924e6befe826fc6b2a2b983eb5104d9039c903d113d8c96c848655e"),
      "toy_reg" -> ("b4d441e5ebe61edd40d486ec44b50d9709f00c7c07968b24b1c22eb0e182c033", "8ae87e3aa35d5228216f7917bf45783a37bf096bea7e13c92a7174a1af65c7ce"),
      "toy_cls" -> ("e43d397f2b3533dc8e2f1bc50d2712133307bf540dfff9c2bd1a09f190892bc9", "fdcf82bc72a85653851879e56d3a23cac790a914d96fafdc138f54b6944985f3"),
    ))
  }
}
