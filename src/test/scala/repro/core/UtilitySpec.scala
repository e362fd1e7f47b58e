package repro.core

import repro.SparkSpec
import repro.lake.{Lake, LakeTable, LocalTable, TableMeta}
import repro.tasks.Task

class UtilitySpec extends SparkSpec {

  private val input = LakeTable(
    TableMeta("input", "src", Vector("key"), Vector.empty),
    Vector("key" -> Array(Some("a"), Some("b")), "t" -> Array(Some("1"), Some("0"))))

  private def tbl(name: String, v: Seq[String]): LakeTable = LakeTable(
    TableMeta(name, "src", Vector("key"), Vector.empty),
    Vector("key" -> Array(Some("a"), Some("b")), "v" -> v.map(Option(_)).toArray))

  private val lake = Lake(Vector(tbl("good", Seq("5", "6")), tbl("bad", Seq("7", "8")), tbl("meh", Seq("1", "2"))))
  private val cGood = Candidate(0, Vector(JoinEdge("key", "good", "key")), "v")
  private val cBad = Candidate(1, Vector(JoinEdge("key", "bad", "key")), "v")
  private val cMeh = Candidate(2, Vector(JoinEdge("key", "meh", "key")), "v")

  /** Utility keyed on which augmented tables are present: good=+0.4, bad=−0.3. */
  private val task = new Task {
    def name = "toy"
    def utility(t: LocalTable): Double = {
      val cols = t.columnNames.mkString(",")
      var u = 0.3
      if (cols.contains("__good__")) u += 0.4
      if (cols.contains("__bad__")) u -= 0.3
      u
    }
  }

  private def mkUtil(budget: Int = 100) =
    new CountingUtility(new AugmentEngine(spark, input, lake), task, budget)

  test("base utility counts one query") {
    val u = mkUtil()
    assert(u.baseUtility == 0.3)
    assert(u.queries == 1)
  }

  test("memoisation: re-querying the same selection is free") {
    val u = mkUtil()
    u.query(Set(cGood))
    val q = u.queries
    u.query(Set(cGood))
    assert(u.queries == q)
  }

  test("selection order does not matter for memoisation") {
    val u = mkUtil()
    u.query(Set(cGood, cMeh))
    val q = u.queries
    u.query(Set(cMeh, cGood))
    assert(u.queries == q)
  }

  test("monotone closure lifts a harmful augmentation to the best observed subset") {
    val u = mkUtil()
    u.baseUtility
    u.query(Set(cGood))
    // raw({good,bad}) = 0.4 < raw({good}) = 0.7 → closure reports 0.7.
    assert(u.query(Set(cGood, cBad)) == 0.7)
    val rawU = task.utility(new AugmentEngine(spark, input, lake).localTable(Seq(cGood, cBad)))
    assert(math.abs(rawU - 0.4) < 1e-12)
  }

  test("closure only applies to observed subsets") {
    val u = mkUtil()
    // {good,bad} queried before {good}: no better subset observed yet.
    u.baseUtility
    assert(math.abs(u.query(Set(cGood, cBad)) - 0.4) < 1e-12)
  }

  test("budget exhaustion raises BudgetExhausted") {
    val u = mkUtil(budget = 2)
    u.baseUtility
    u.query(Set(cGood))
    intercept[BudgetExhausted](u.query(Set(cBad)))
    // Memoised queries still work after exhaustion.
    assert(u.query(Set(cGood)) == 0.7)
  }

  test("curve records best-so-far per query") {
    val u = mkUtil()
    u.baseUtility
    u.query(Set(cBad))
    u.query(Set(cGood))
    assert(u.curve.map(_._1) == Vector(1, 2, 3))
    assert(u.curve.map(_._2) == Vector(0.3, 0.3, 0.7))
    assert(u.bestUtility == 0.7)
  }

  test("utilityAt returns the best utility within a query budget") {
    val u = mkUtil()
    u.baseUtility
    u.query(Set(cGood))
    val res = SearchResult("toy", Vector(cGood), u.bestUtility, u.queries, u.curve)
    assert(res.utilityAt(1) == 0.3)
    assert(res.utilityAt(5) == 0.7)
    assert(res.utilityAt(0) == 0.0)
  }

  test("a task returning NaN is recorded as 0 and keeps the best so far") {
    val nanTask = new Task {
      def name = "nan"
      def utility(t: LocalTable): Double = {
        val cols = t.columnNames.mkString(",")
        if (cols.contains("__bad__")) Double.NaN else if (cols.contains("__good__")) 0.7 else 0.3
      }
    }
    val u = new CountingUtility(new AugmentEngine(spark, input, lake), nanTask, 10)
    // Queried first, {bad} has no observed proper subset, so its certified
    // utility is the value recorded for NaN.
    assert(u.query(Set(cBad)) == 0.0)
    u.baseUtility
    u.query(Set(cGood))
    u.query(Set(cMeh))
    u.query(Set(cGood, cBad))
    val us = u.curve.map(_._2)
    assert(us.size == 5 && us.forall(v => !v.isNaN && v >= 0.0 && v <= 1.0), s"$us")
    assert(us.zip(us.drop(1)).forall { case (a, b) => b >= a }, s"$us")
    assert(u.bestUtility == 0.7)
  }

  test("utilities are clamped to [0,1]") {
    val bigTask = new Task {
      def name = "big"
      def utility(t: LocalTable): Double = 7.5
    }
    val u = new CountingUtility(new AugmentEngine(spark, input, lake), bigTask, 10)
    assert(u.baseUtility == 1.0)
  }
}
