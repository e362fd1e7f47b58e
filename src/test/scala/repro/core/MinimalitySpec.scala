package repro.core

import repro.SparkSpec

class MinimalitySpec extends SparkSpec {

  test("drops augmentations that are not needed to stay above the threshold") {
    // Utility: 0.9 as soon as table 0 is present; others contribute nothing.
    val env = TestEnv.build(spark, 4, s => if (s.contains(0)) 0.9 else 0.1)
    val util = env.util(100)
    val sol = Vector(env.cands(0), env.cands(1), env.cands(2))
    val minSet = Minimality.minimise(sol, 0.9, util)
    assert(minSet.map(_.id) == Vector(0))
    assert(util.certified(minSet.toSet) == 0.9)
  }

  test("keeps augmentations whose removal would break the threshold") {
    // Both 0 and 1 are needed.
    val env = TestEnv.build(spark, 3, s => if (s.contains(0) && s.contains(1)) 0.9 else 0.2)
    val util = env.util(100)
    val minSet = Minimality.minimise(Vector(env.cands(0), env.cands(1), env.cands(2)), 0.9, util)
    assert(minSet.map(_.id).toSet == Set(0, 1))
    assert(util.certified(minSet.toSet) == 0.9)
  }

  test("result is minimal per Definition 6 (removing any element drops utility)") {
    val env = TestEnv.build(spark, 4, s => 0.2 + 0.2 * s.count(Set(0, 1, 2).contains))
    val util = env.util(200)
    val minSet = Minimality.minimise(env.cands, 0.8, util)
    minSet.foreach { c =>
      val without = minSet.filterNot(_.id == c.id)
      assert(util.query(without.toSet) < 0.8)
    }
  }

  test("stops gracefully when the budget runs out") {
    val env = TestEnv.build(spark, 3, s => if (s.contains(0)) 0.9 else 0.1)
    val util = env.util(2)
    util.baseUtility
    util.query(Set(env.cands(0), env.cands(1)))
    // No budget left: minimise must return the input unchanged.
    val minSet = Minimality.minimise(Vector(env.cands(0), env.cands(1)), 0.9, util)
    assert(minSet.map(_.id).toSet.subsetOf(Set(0, 1)))
  }

  test("empty solution passes through") {
    val env = TestEnv.build(spark, 2, _ => 0.5)
    assert(Minimality.minimise(Vector.empty, 0.5, env.util(10)).isEmpty)
  }
}
