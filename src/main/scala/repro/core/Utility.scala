package repro.core

import scala.collection.mutable

import repro.tasks.Task
import repro.util.Stats

/** Thrown by [[CountingUtility.query]] when the query budget is spent;
  * search algorithms catch it and end through [[CountingUtility.result]].
  */
final class BudgetExhausted(val budget: Int) extends RuntimeException(s"query budget $budget exhausted")

/** The "query the task" endpoint shared by METAM and every baseline.
  *
  * One *query* = one utility evaluation of Γ(D_in, S) for a selection S of
  * candidates (the paper's unit of cost). Results are memoised, so
  * re-examining an already-queried selection is free — only fresh
  * evaluations count against the budget.
  *
  * Monotonicity certification (property P3) is applied as a monotone
  * closure: u(S) is reported as max over all *observed* S' ⊆ S of the raw
  * utility — exactly "wrap the task with a mechanism that ignores an
  * augmentation if it worsens utility", with the already-paid queries as
  * the certificates. [[certified]] reads that value for any selection
  * without a query, and [[result]] is how every search method ends.
  *
  * A task that returns NaN is recorded as utility 0.0, so one undefined
  * score cannot turn the best-so-far and every later curve point into NaN.
  */
final class CountingUtility(
    engine: AugmentEngine,
    task: Task,
    val budget: Int,
) {
  private val raw = mutable.HashMap.empty[Set[Int], Double]
  private val curveBuf = mutable.ArrayBuffer.empty[(Int, Double)]
  private var bestSoFar = 0.0

  def queries: Int = raw.size

  /** (queries-used, best-utility-so-far) after each fresh evaluation. */
  def curve: Vector[(Int, Double)] = curveBuf.toVector

  /** Utility of the un-augmented input (costs one query on first use). */
  def baseUtility: Double = query(Set.empty[Candidate])

  def query(sel: Set[Candidate]): Double = {
    val key = sel.map(_.id)
    val fresh = !raw.contains(key)
    if (fresh && raw.size >= budget) throw new BudgetExhausted(budget)
    val rawU = raw.getOrElseUpdate(key, {
      val u = task.utility(engine.localTable(sel.toSeq.sortBy(_.id)))
      if (u.isNaN) 0.0 else Stats.clamp01(u)
    })
    val u = monotoneClosure(key, rawU)
    if (fresh) {
      bestSoFar = math.max(bestSoFar, u)
      curveBuf += ((raw.size, bestSoFar))
    }
    u
  }

  /** u(S) certified by the observed subsets of `sel`, 0.0 if there are
    * none. Costs no query and adds no curve point; for an observed
    * selection it equals [[query]], as raw utilities are at least 0.
    */
  def certified(sel: Set[Candidate]): Double = monotoneClosure(sel.map(_.id), 0.0)

  /** `method`'s outcome: `solution` at its certified utility, with the
    * queries and curve spent so far.
    */
  def result(method: String, solution: Vector[Candidate]): SearchResult =
    SearchResult(method, solution, certified(solution.toSet), queries, curve)

  private def monotoneClosure(key: Set[Int], rawU: Double): Double = {
    var best = rawU
    raw.foreach { case (k, u) => if (k.subsetOf(key) && u > best) best = u }
    best
  }
}
