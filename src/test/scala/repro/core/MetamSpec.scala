package repro.core

import scala.collection.mutable

import repro.SparkSpec

class MetamSpec extends SparkSpec {

  /** Utility: planted tables {0,1} each contribute 0.4 over a 0.1 base. */
  private def plantedEnv(n: Int) = TestEnv.build(
    spark, n,
    s => 0.1 + 0.4 * s.count(Set(0, 1).contains),
    // Planted candidates have high corr+overlap; the rest look mediocre.
    i => if (i <= 1) Array(0.9, 0.8, 0.6, 0.5, 0.9) else Array(0.2, 0.1, 0.4, 0.5, 0.9),
  )

  test("finds the planted augmentations and reaches theta") {
    val env = plantedEnv(12)
    val res = Metam.run(env.cands, env.profiles, env.util(200), MetamConfig(theta = 0.9, seed = 3))
    assert(res.utility >= 0.9 - 1e-9)
    assert(res.solution.map(_.id).toSet == Set(0, 1))
  }

  test("solution is minimal (redundant candidates removed)") {
    val env = TestEnv.build(spark, 8, s => if (s.contains(0)) 0.95 else 0.1,
      i => if (i == 0) Array(0.9, 0.9, 0.9, 0.9, 0.9) else Array(0.3, 0.3, 0.3, 0.3, 0.3))
    val res = Metam.run(env.cands, env.profiles, env.util(200), MetamConfig(theta = 0.9, seed = 4))
    assert(res.solution.map(_.id) == Vector(0))
  }

  test("stops once theta is reached (anytime behaviour)") {
    val env = plantedEnv(30)
    val util = env.util(500)
    val res = Metam.run(env.cands, env.profiles, util, MetamConfig(theta = 0.5, seed = 5))
    // theta=0.5 needs a single planted table; METAM must not spend the
    // whole budget.
    assert(res.utility >= 0.5)
    assert(res.queriesUsed < 100)
  }

  test("respects the query budget and returns best-so-far") {
    val env = plantedEnv(40)
    val res = Metam.run(env.cands, env.profiles, env.util(10), MetamConfig(theta = 0.95, seed = 6))
    assert(res.queriesUsed <= 10)
    assert(res.utility >= 0.0)
  }

  test("needs far fewer queries than uniform sampling on a profile-informative lake") {
    val n = 60
    val env = TestEnv.build(
      spark, n,
      s => 0.1 + (if (s.contains(55)) 0.8 else 0.0),
      i => if (i == 55) Array(0.9, 0.9, 0.7, 0.5, 0.9) else Array(0.2, 0.2, 0.4, 0.5, 0.9),
    )
    val resM = Metam.run(env.cands, env.profiles, env.util(500), MetamConfig(theta = 0.85, seed = 7))
    assert(resM.utility >= 0.85)
    assert(resM.queriesUsed < 20, s"METAM took ${resM.queriesUsed} queries")
    val resU = repro.baselines.Baselines.uniformSampling(env.cands, env.util(500), 0.85, seed = 1)
    assert(resM.queriesUsed < resU.queriesUsed)
  }

  test("group querying can discover conjunctive (AND) utilities") {
    // Utility only rises when BOTH 2 and 3 are present — single probes see
    // nothing; the combinatorial mechanism must find the pair.
    val env = TestEnv.build(
      spark, 6,
      s => if (s.contains(2) && s.contains(3)) 0.9 else 0.1,
      i => Array(0.5, 0.5, 0.5, 0.5, 0.5),
    )
    val res = Metam.run(env.cands, env.profiles, env.util(2000),
      MetamConfig(theta = 0.85, seed = 10))
    assert(res.utility >= 0.85, s"got ${res.utility} with ${res.queriesUsed} queries")
    assert(res.solution.map(_.id).toSet == Set(2, 3))
  }

  test("reports a monotone utility curve") {
    val env = plantedEnv(20)
    val res = Metam.run(env.cands, env.profiles, env.util(100), MetamConfig(theta = 0.95, seed = 11))
    val curve = res.curve.map(_._2)
    assert(curve.zip(curve.tail).forall { case (a, b) => b >= a })
    assert(res.utilityAt(0) == 0.0)
    assert(res.utilityAt(Int.MaxValue) == curve.last)
  }

  test("exhausts gracefully when no augmentation helps") {
    val env = TestEnv.build(spark, 5, _ => 0.3)
    val res = Metam.run(env.cands, env.profiles, env.util(200), MetamConfig(theta = 0.9, seed = 12))
    assert(math.abs(res.utility - 0.3) < 1e-9)
    assert(res.solution.isEmpty)
  }

  test("deterministic given the same seed") {
    val env = plantedEnv(25)
    val a = Metam.run(env.cands, env.profiles, env.util(150), MetamConfig(theta = 0.9, seed = 13))
    val b = Metam.run(env.cands, env.profiles, env.util(150), MetamConfig(theta = 0.9, seed = 13))
    assert(a.solution.map(_.id) == b.solution.map(_.id))
    assert(a.queriesUsed == b.queriesUsed)
  }

  test("an empty candidate set gives the base utility and an empty solution") {
    val env = plantedEnv(3)
    val res = Metam.run(Vector.empty, env.profiles, env.util(10), MetamConfig())
    assert(res.solution.isEmpty && math.abs(res.utility - 0.1) < 1e-12 && res.queriesUsed == 1)
    assert(res.curve == Vector((1, res.utility)))
    val broke = Metam.run(Vector.empty, env.profiles, env.util(0), MetamConfig())
    assert(broke.solution.isEmpty && broke.utility == 0.0 && broke.queriesUsed == 0 && broke.curve.isEmpty)
  }

  // ----- pinned query sequences: seeded runs whose every fresh query, in
  // order, was recorded from the reference implementation of probe
  // selection (a filter over all candidates, then maxBy((score, -id))).
  // Any change to which candidate a probe picks changes these sequences.

  /** Run METAM, logging each fresh query's table set as "-" (empty) or "a.b.c". */
  private def pinnedRun(
      n: Int,
      setUtility: Set[Int] => Double,
      profileOf: Int => Array[Double],
      budget: Int,
      cfg: MetamConfig,
  ): (Vector[String], SearchResult) = {
    val log = mutable.ArrayBuffer.empty[String]
    val env = TestEnv.build(spark, n, s => {
      log += (if (s.isEmpty) "-" else s.toSeq.sorted.mkString("."))
      setUtility(s)
    }, profileOf)
    val res = Metam.run(env.cands, env.profiles, env.util(budget), cfg)
    (log.toVector, res)
  }

  /** The full curve (q, best-so-far), q = 1..queries, from the points where it rises. */
  private def curveOf(queries: Int, steps: (Int, Double)*): Vector[(Int, Double)] =
    (1 to queries).map(q => (q, steps.takeWhile(_._1 <= q).last._2)).toVector

  private def assertPinned(
      run: (Vector[String], SearchResult),
      queries: String,
      solution: Vector[Int],
      utility: Double,
      curve: Vector[(Int, Double)],
  ): Unit = {
    val (log, res) = run
    assert(log == queries.stripMargin.split("\\s+").toVector)
    assert(res.queriesUsed == curve.length)
    assert(res.curve == curve)
    assert(res.solution.map(_.id) == solution)
    assert(res.utility == utility)
  }

  /** Six profile prototypes, three near-duplicate variants of each. */
  private def clusteredProfile(i: Int): Array[Double] =
    Array.tabulate(5)(k => ((i % 6) * 37 + k * 11) % 10 / 10.0 + (i % 3) * 0.01)

  /** Four useful tables of different gain and one harmful one. */
  private def plantedUtility(s: Set[Int]): Double =
    0.1 + (if (s(7)) 0.3 else 0.0) + (if (s(12)) 0.25 else 0.0) + (if (s(23)) 0.2 else 0.0) +
      (if (s(31)) 0.15 else 0.0) - (if (s(5)) 0.1 else 0.0)

  test("pinned queries: planted environment with clusters and a harmful table") {
    assertPinned(pinnedRun(40, plantedUtility, clusteredProfile, 150, MetamConfig(theta = 0.95, seed = 20)),
      queries = """- 5 2 1 4 3 0 11 8 7 10 9 6 31 1.7 4.7 5.7 2.7 3.7 0.7 34 7.13 7.10 7.11 7.8 7.9 6.7
        |7.19 7.16 7.17 7.14 7.15 7.12 19 1.7.12 5.7.12 2.7.12 3.7.12 0.7.12 4.7.12 36 7.12.13
        |7.11.12 7.8.12 7.9.12 6.7.12 7.10.12 7.12.19 7.12.17 7.12.14 7.12.15 7.12.18 7.12.16 25
        |7.12.25 7.12.23 7.12.20 7.12.21 7.12.24 7.12.22 23.24 1.7.12.23 5.7.12.23 2.7.12.23
        |3.7.12.23 0.7.12.23 4.7.12.23 17.36 7.12.13.23 7.11.12.23 7.8.12.23 7.9.12.23 6.7.12.23
        |7.10.12.23 13.31 7.12.19.23 7.12.17.23 7.12.14.23 7.12.15.23 7.12.18.23 7.12.16.23 5.31
        |7.12.23.25 7.12.23.29 7.12.20.23 7.12.21.23 7.12.23.24 7.12.22.23 6.13 7.12.23.31
        |7.12.23.35 7.12.23.26 7.12.23.27 7.12.23.30 7.12.23.28 11.18 7.12.31 7.23.31 12.23.31""",
      solution = Vector(7, 12, 23, 31), utility = 1.0,
      curve = curveOf(99, (1, 0.1), (10, 0.4), (33, 0.65), (56, 0.8500000000000001), (90, 1.0)))
  }

  test("pinned queries: budget runs out mid-round") {
    assertPinned(pinnedRun(40, plantedUtility, clusteredProfile, 40, MetamConfig(theta = 0.95, seed = 20)),
      queries = """- 5 2 1 4 3 0 11 8 7 10 9 6 31 1.7 4.7 5.7 2.7 3.7 0.7 34 7.13 7.10 7.11 7.8 7.9 6.7
        |7.19 7.16 7.17 7.14 7.15 7.12 19 1.7.12 5.7.12 2.7.12 3.7.12 0.7.12 4.7.12""",
      solution = Vector(7, 12), utility = 0.65,
      curve = curveOf(40, (1, 0.1), (10, 0.4), (33, 0.65)))
  }

  test("pinned queries: exhausts into the combinatorial sweep") {
    assertPinned(pinnedRun(10, s => if (Set(2, 5, 7).subsetOf(s)) 0.9 else 0.1,
      i => Array.tabulate(5)(k => (i * 3 + k * 7) % 10 / 10.0), 400, MetamConfig(theta = 0.85, seed = 21)),
      queries = """- 6 7 3 5 9 8 0 4 2 1 6.7 3.6 5.6 6.9 6.8 0.6 4.6 2.6 1.6 3.7 5.7 7.9 7.8 0.7 4.7 2.7
        |1.7 3.5 3.9 3.8 0.3 3.4 2.3 1.3 5.9 5.8 0.5 4.5 2.5 1.5 8.9 0.9 4.9 2.9 1.9 0.8 4.8 2.8
        |1.8 0.4 0.2 0.1 2.4 1.4 1.2 3.6.7 5.6.7 6.7.9 6.7.8 0.6.7 4.6.7 2.6.7 1.6.7 3.5.6 3.6.9
        |3.6.8 0.3.6 3.4.6 2.3.6 1.3.6 5.6.9 5.6.8 0.5.6 4.5.6 2.5.6 1.5.6 6.8.9 0.6.9 4.6.9
        |2.6.9 1.6.9 0.6.8 4.6.8 2.6.8 1.6.8 0.4.6 0.2.6 0.1.6 2.4.6 1.4.6 1.2.6 3.5.7 3.7.9
        |3.7.8 0.3.7 3.4.7 2.3.7 1.3.7 5.7.9 5.7.8 0.5.7 4.5.7 2.5.7""",
      solution = Vector(7, 5, 2), utility = 0.9,
      curve = curveOf(104, (1, 0.1), (104, 0.9)))
  }
}
