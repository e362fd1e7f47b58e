package repro.profile

import repro.{SampleJoinReference, SparkSpec}
import repro.core.{AugmentEngine, Candidate, JoinEdge}
import repro.discovery.JoinDiscovery
import repro.lake.{Lake, LakeTable, ScenarioGen, ScenarioSpec, TableMeta, TaskKind}
import repro.util.{ReferenceStats, Stats}

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

  /** Asserts that `profileAll`'s corr, MI and overlap of every candidate
    * joining through its table's first key column equal those from the
    * sample joined in Spark, bit for bit.
    */
  private def assertMatchesJoinReference(engine: AugmentEngine, cands: Vector[Candidate], targetCol: String): Unit = {
    val prof = Profiler.profileAll(spark, engine, cands, targetCol)
    val ref = SampleJoinReference.profiles(spark, engine, cands, targetCol)
    assert(ref.nonEmpty && ref.values.exists(_._1 > 0.0) && ref.values.exists(_._2 > 0.0))
    val at = Vector("corr", "mi", "overlap").map(prof.profileIndex)
    ref.foreach { case (id, (corr, mi, overlap)) =>
      val got = at.map(prof.byId(id)(_))
      val want = Vector(corr, mi, overlap).map(Stats.clamp01)
      assert(got.map(java.lang.Double.doubleToRawLongBits) == want.map(java.lang.Double.doubleToRawLongBits),
        s"candidate $id: (corr, mi, overlap) $got, joined in Spark $want")
    }
  }

  /** A random input and lake: input keys repeat (sample rows share keys,
    * some with the same target), are null or match nothing; targets are
    * null, non-numeric, ±0.0 or repeated; lake keys repeat, are null or
    * foreign; values are null, non-numeric or tied; tables have one or
    * two non-key columns and some a second key column.
    */
  private def randomLake(seed: Long): (AugmentEngine, Vector[Candidate]) = {
    val rnd = new scala.util.Random(seed)
    def maybe(pNone: Double)(cell: => String): Option[String] = if (rnd.nextDouble() < pNone) None else Some(cell)
    def key(domain: Int, foreign: Double): String =
      if (rnd.nextDouble() < foreign) s"z${rnd.nextInt(500)}" else s"k${rnd.nextInt(domain)}"
    val rows = 160
    val k1 = Array.fill(rows)(maybe(0.05)(key(30, 0.1)))
    val k2 = Array.fill(rows)(maybe(0.05)(key(60, 0.1)))
    val tgt = Array.fill(rows)(maybe(0.05)(rnd.nextInt(10) match {
      case 0 => "-0.0"
      case 1 => "0.0"
      case 2 => "n/a"
      case 3 => "1.5"
      case _ => rnd.nextGaussian().toString
    }))
    (1 until rows by 7).foreach { i => k1(i) = k1(i - 1); k2(i) = k2(i - 1); tgt(i) = tgt(i - 1) }
    val input = LakeTable(TableMeta("input", "src", Vector("k1", "k2"), Vector("in")),
      Vector("k1" -> k1, "k2" -> k2, "target" -> tgt))
    val tables = (0 until 8).map { t =>
      val n = 40 + rnd.nextInt(120)
      val twoKeys = t % 3 == 0
      val keys = Array.fill(n)(maybe(0.05)(key(if (t % 2 == 0) 30 else 60, if (t == 7) 1.0 else 0.1)))
      def values(): Array[Option[String]] = Array.fill(n)(maybe(0.1)(rnd.nextInt(8) match {
        case 0 => s"x${rnd.nextInt(5)}"
        case 1 => (rnd.nextInt(3) - 1).toString
        case _ => (rnd.nextGaussian() * (t + 1)).toString
      }))
      val valueCols = Vector("v" -> values()) ++ (if (t % 2 == 1) Vector("w" -> values()) else Vector.empty)
      val keyCols = Vector("key" -> keys) ++ (if (twoKeys) Vector("alt" -> Array.fill(n)(maybe(0.1)(key(60, 0.0))))
                                             else Vector.empty)
      LakeTable(TableMeta(s"t$t", "src", keyCols.map(_._1), Vector(s"tok$t")), keyCols ++ valueCols)
    }.toVector
    val lake = Lake(tables)
    val cands = (for {
      leftCol <- Vector("k1", "k2")
      t <- tables
      rightKey <- t.meta.keyCols
      vc <- t.columnNames if !t.meta.keyCols.contains(vc)
    } yield (JoinEdge(leftCol, t.meta.name, rightKey), vc)).zipWithIndex.map { case ((e, vc), i) =>
      Candidate(i, Vector(e), vc)
    }
    (new AugmentEngine(spark, input, lake), cands)
  }

  test("corr, MI and overlap equal those of the sample joined in Spark, bit for bit, on random lakes") {
    (1L to 3L).foreach { seed =>
      val (engine, cands) = randomLake(seed)
      assertMatchesJoinReference(engine, cands, "target")
    }
  }

  test("corr, MI and overlap equal those of the sample joined in Spark, bit for bit, on a discovered scenario") {
    val s = ScenarioGen.scenario(ScenarioSpec("mini", TaskKind.Causal, rows = 150, nSignals = 3, dupsPerPlanted = 1,
      nIrrelevant = 20, nIrrelevantDups = 8, nTopicIrrelevant = 6, nErroneous = 15, seed = 5))
    val cands = JoinDiscovery.candidatesFor(spark, s.input, s.lake, 0.03, 1)
    assertMatchesJoinReference(new AugmentEngine(spark, s.input, s.lake), cands, s.profileTargetCol)
  }

  test("profileAll's MI equals the in-memory equi-rank reference on random lakes") {
    (1L to 3L).foreach { seed =>
      val (engine, cands) = randomLake(seed)
      val prof = Profiler.profileAll(spark, engine, cands, "target")
      val mi = prof.profileIndex("mi")
      val idx = Profiler.sampleIndices(engine.input.nRows, Profiler.SampleSize, Profiler.SampleSeed)
      val target = engine.input.numeric("target")
      val got = cands.map { c =>
        val keys = engine.input.column(c.edges.head.leftCol)
        val gamma = engine.column(c)
        // One sample row per distinct (key, target) with a key, a target and a Γ value.
        val rows = idx.toSeq
          .flatMap(i => for (k <- keys(i); t <- target(i); _ <- gamma(i)) yield (k, t, i))
          .distinctBy { case (k, t, _) => (k, t) }
        val want = ReferenceStats.normalizedMutualInformation(
          rows.map(r => engine.numeric(c)(r._3)).toArray, rows.map(r => Option(r._2)).toArray)
        assert(math.abs(prof.of(c)(mi) - want) < 1e-12, s"seed $seed, candidate ${c.id}: MI ${prof.of(c)(mi)}, reference $want")
        want
      }
      assert(got.exists(_ > 0.0))
    }
  }

  test("a candidate's corr, MI and overlap depend only on its Γ column") {
    val rnd = new scala.util.Random(29)
    val domain = Vector.tabulate(80)(i => f"$i%03d")
    // Input keys repeat, some rows repeat whole and a quarter of the
    // targets are null, so counting sampled rows differs from counting
    // distinct matched keys.
    val inKeys = Array.fill(140)(Option("K" + domain(rnd.nextInt(domain.length))))
    val tgt = Array.fill(inKeys.length)(if (rnd.nextDouble() < 0.25) None else Some(rnd.nextGaussian().toString))
    (1 until inKeys.length by 7).foreach { i => inKeys(i) = inKeys(i - 1); tgt(i) = tgt(i - 1) }
    val in = LakeTable(TableMeta("input", "src", Vector("key"), Vector("in")), Vector("key" -> inKeys, "target" -> tgt))
    def gaussians(n: Int): Array[Option[String]] = Array.fill(n)(Some(rnd.nextGaussian().toString))
    def some(keys: Seq[String]): Array[Option[String]] = keys.map(Option(_)).toArray
    val bridged = domain.filter(_ => rnd.nextDouble() < 0.9)
    val bridge = LakeTable(TableMeta("bridge", "src", Vector("key"), Vector("b")),
      Vector("key" -> some(bridged.map("K" + _)), "fk" -> some(bridged.map("F" + _))))
    val farKeys = domain.filter(_ => rnd.nextDouble() < 0.8)
    val far = LakeTable(TableMeta("far", "src", Vector("fk"), Vector("f")),
      Vector("fk" -> some(farKeys.map("F" + _)), "v" -> gaussians(farKeys.length)))
    val twoKeys = rnd.shuffle(domain).take(70)
    val two = LakeTable(TableMeta("two", "src", Vector("key", "alt"), Vector("t")),
      Vector("key" -> some(twoKeys.map("K" + _)), "alt" -> some(rnd.shuffle(twoKeys).map("K" + _)),
        "w" -> gaussians(twoKeys.length)))
    val engine = new AugmentEngine(spark, in, Lake(Vector(bridge, far, two)))
    val firstKey = Candidate(0, Vector(JoinEdge("key", "two", "key")), "w")
    val twoHop = Candidate(1, Vector(JoinEdge("key", "bridge", "key"), JoinEdge("fk", "far", "fk")), "v")
    val secondKey = Candidate(2, Vector(JoinEdge("key", "two", "alt")), "w")
    val prof = Profiler.profileAll(spark, engine, Vector(firstKey, twoHop, secondKey), "target")
    val at = Vector("corr", "mi", "overlap").map(prof.profileIndex)

    // The same Γ column as a 1-hop first-key candidate of a one-table lake.
    def alone(c: Candidate): Vector[Double] = {
      val gamma = engine.column(c)
      val cells = inKeys.indices.collect { case i if gamma(i).isDefined => (inKeys(i), gamma(i)) }.distinct
      val solo = LakeTable(TableMeta("solo", "src", Vector("key"), Vector("s")),
        Vector("key" -> cells.map(_._1).toArray, "x" -> cells.map(_._2).toArray))
      val sc = Candidate(0, Vector(JoinEdge("key", "solo", "key")), "x")
      val p = Profiler.profileAll(spark, new AugmentEngine(spark, in, Lake(Vector(solo))), Vector(sc), "target")
      at.map(p.of(sc)(_))
    }
    Seq(firstKey, twoHop, secondKey).foreach { c =>
      val got = at.map(prof.of(c)(_))
      val want = alone(c)
      assert(got.forall(_ > 0.0), s"${c.describe}: (corr, mi, overlap) $got")
      assert(got.map(java.lang.Double.doubleToRawLongBits) == want.map(java.lang.Double.doubleToRawLongBits),
        s"${c.describe}: (corr, mi, overlap) $got, alone $want")
    }
  }

  test("profiles do not change when AQE may coalesce the partitions of cached plans") {
    val (engine, cands) = randomLake(4)
    val key = "spark.sql.optimizer.canChangeCachedPlanOutputPartitioning"
    val before = spark.conf.getOption(key)
    def bits: Map[Int, Seq[Long]] =
      Profiler.profileAll(spark, engine, cands, "target").byId.view.mapValues(_.toSeq.map(java.lang.Double.doubleToRawLongBits)).toMap
    val pinned = bits
    spark.conf.set(key, "true")
    try assert(bits == pinned)
    finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
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
