package repro.profile

import repro.SparkSpec
import repro.core.{AugmentEngine, Candidate, JoinEdge}
import repro.lake.{Lake, LakeTable, TableMeta}
import repro.util.Stats

class ProfilerSpec extends SparkSpec {

  private val n = 120
  private val rnd = new scala.util.Random(13)
  private val keys = Array.tabulate(n)(i => f"K$i%03d")
  private val target = Array.fill(n)(rnd.nextGaussian())

  private def numTable(name: String, vocab: Vector[String], valueCol: String, values: Array[Double],
                       tKeys: Array[String] = keys): LakeTable =
    LakeTable(TableMeta(name, "src", Vector("key"), vocab),
      Vector("key" -> tKeys.map(Option(_)), valueCol -> values.map(v => Option(v.toString): Option[String])))

  private val input = LakeTable(
    TableMeta("input", "src", Vector("key"), Vector("housing", "price")),
    Vector("key" -> keys.map(Option(_)),
      "target" -> target.map(v => Option(v.toString): Option[String])))

  private val correlated = numTable("corr_t", Vector("housing", "extra"), "v",
    target.map(_ * 2.0 + 0.05 * rnd.nextGaussian()))
  private val noise = numTable("noise_t", Vector("zz", "yy"), "w", Array.fill(n)(rnd.nextGaussian()))
  private val partial = numTable("partial_t", Vector("aa"), "p",
    Array.fill(n / 2)(rnd.nextGaussian()), keys.take(n / 2))

  private def profilesFor(tables: LakeTable*): (Vector[Candidate], Profiles) = {
    val lake = Lake(tables.toVector)
    val engine = new AugmentEngine(spark, input, lake)
    val cands = tables.zipWithIndex.map { case (t, i) =>
      Candidate(i, Vector(JoinEdge("key", t.meta.name, "key")), t.columnNames.filterNot(_ == "key").head)
    }.toVector
    (cands, Profiler.profileAll(spark, engine, cands, "target"))
  }

  test("profile vector has the documented dimension and range") {
    val (cands, prof) = profilesFor(correlated, noise, partial)
    assert(prof.names == Profiler.ProfileNames)
    cands.foreach { c =>
      val v = prof.of(c)
      assert(v.length == 5)
      assert(v.forall(x => x >= 0.0 && x <= 1.0))
    }
  }

  test("correlated candidate has high corr profile, noise low") {
    val (cands, prof) = profilesFor(correlated, noise)
    val ci = prof.profileIndex("corr")
    assert(prof.of(cands(0))(ci) > 0.8)
    assert(prof.of(cands(1))(ci) < 0.35)
  }

  test("corr profile matches the driver-side estimator") {
    val (cands, prof) = profilesFor(correlated)
    val engine = new AugmentEngine(spark, input, Lake(Vector(correlated)))
    val colVals = engine.column(cands(0))
    val idx = Profiler.sampleIndices(n, 100, 17)
    val xs = idx.map(i => colVals(i).flatMap(_.toDoubleOption))
    val ys = idx.map(i => input.numeric("target")(i))
    val expected = math.abs(Stats.pearson(xs, ys))
    assert(math.abs(prof.of(cands(0))(prof.profileIndex("corr")) - expected) < 1e-6)
  }

  test("MI profile is high for a dependent candidate and lower for noise") {
    val (cands, prof) = profilesFor(correlated, noise)
    val mi = prof.profileIndex("mi")
    assert(prof.of(cands(0))(mi) > prof.of(cands(1))(mi))
    assert(prof.of(cands(0))(mi) > 0.3)
  }

  test("overlap profile reflects join coverage") {
    val (cands, prof) = profilesFor(correlated, partial)
    val oi = prof.profileIndex("overlap")
    assert(prof.of(cands(0))(oi) > 0.95)
    val p = prof.of(cands(1))(oi)
    assert(p > 0.25 && p < 0.75)
  }

  test("overlap profile is 0 for a disjoint-key candidate") {
    val foreign = numTable("foreign_t", Vector("f"), "fv", Array.fill(n)(1.0),
      Array.tabulate(n)(i => f"Z$i%03d"))
    val (cands, prof) = profilesFor(foreign)
    assert(prof.of(cands(0))(prof.profileIndex("overlap")) == 0.0)
    assert(prof.of(cands(0))(prof.profileIndex("corr")) == 0.0)
  }

  test("embedding profile is higher for shared vocabulary") {
    val (cands, prof) = profilesFor(correlated, noise)
    val ei = prof.profileIndex("embed")
    assert(prof.of(cands(0))(ei) > prof.of(cands(1))(ei))
  }

  test("metadata profile rewards same source") {
    val simSame = Profiler.metadataSimilarity(Set("key", "price"), "s1", Set("key", "price"), "s1")
    val simDiff = Profiler.metadataSimilarity(Set("key", "price"), "s1", Set("other"), "s2")
    assert(simSame == 1.0)
    assert(simDiff < 0.5)
  }

  test("metadata similarity handles empty attribute sets") {
    assert(Profiler.metadataSimilarity(Set.empty, "a", Set("x"), "a") == 0.5)
  }

  test("batched and fallback profiling agree on the same candidate") {
    val lake = Lake(Vector(correlated))
    val engine = new AugmentEngine(spark, input, lake)
    val c1 = Candidate(0, Vector(JoinEdge("key", "corr_t", "key")), "v")
    val batched = Profiler.profileAll(spark, engine, Vector(c1), "target")
    // Force the fallback path by renaming the table's key columns metadata.
    val lake2 = Lake(Vector(correlated.copy(meta = correlated.meta.copy(keyCols = Vector("nope", "key")))))
    val engine2 = new AugmentEngine(spark, input, lake2)
    val fb = Profiler.profileAll(spark, engine2, Vector(c1), "target")
    val ci = batched.profileIndex("corr")
    val mi = batched.profileIndex("mi")
    val oi = batched.profileIndex("overlap")
    assert(math.abs(batched.of(c1)(ci) - fb.of(c1)(ci)) < 1e-6)
    assert(batched.of(c1)(mi) > 0.0)
    assert(math.abs(batched.of(c1)(mi) - fb.of(c1)(mi)) < 1e-12)
    assert(math.abs(batched.of(c1)(oi) - fb.of(c1)(oi)) < 1e-6)
  }

  test("sampleIndices is deterministic, sorted and bounded") {
    val a = Profiler.sampleIndices(500, 100, 17)
    val b = Profiler.sampleIndices(500, 100, 17)
    assert(a.toSeq == b.toSeq)
    assert(a.length == 100 && a.toSeq == a.sorted.toSeq && a.forall(i => i >= 0 && i < 500))
  }

  test("sampleIndices returns everything when n exceeds rows") {
    assert(Profiler.sampleIndices(10, 100, 1).length == 10)
  }

  test("TokenEmbedding similarity of identical vocab is 1") {
    assert(math.abs(TokenEmbedding.similarity(Seq("a", "b"), Seq("a", "b")) - 1.0) < 1e-9)
  }

  test("TokenEmbedding similarity is case-insensitive and symmetric") {
    val s1 = TokenEmbedding.similarity(Seq("Housing", "PRICE"), Seq("housing", "price"))
    assert(math.abs(s1 - 1.0) < 1e-9)
    val a = TokenEmbedding.similarity(Seq("x", "y"), Seq("y", "z"))
    val b = TokenEmbedding.similarity(Seq("y", "z"), Seq("x", "y"))
    assert(math.abs(a - b) < 1e-12)
  }

  test("TokenEmbedding shared vocabulary scores above disjoint vocabulary") {
    val shared = TokenEmbedding.similarity(Seq("schools", "test", "score"), Seq("schools", "test", "rank"))
    val disjoint = TokenEmbedding.similarity(Seq("schools", "test", "score"), Seq("qq", "ww", "ee"))
    assert(shared > disjoint)
  }

  test("TokenEmbedding of empty token set scores 0.5 (zero vector)") {
    assert(TokenEmbedding.similarity(Nil, Seq("a")) == 0.5)
  }
}
