package repro.core

import scala.collection.mutable

import repro.tasks.Task
import repro.util.Stats

/** Thrown by [[CountingUtility.query]] when the query budget is spent;
  * search algorithms catch it and return their best-so-far solution.
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
  * the certificates.
  *
  * A task that returns NaN is recorded as utility 0.0, so one undefined
  * score cannot turn the best-so-far and every later curve point into NaN.
  */
final class CountingUtility(
    engine: AugmentEngine,
    task: Task,
    val budget: Int,
    monotone: Boolean = true,
) {
  private val raw = mutable.HashMap.empty[Set[Int], Double]
  private val curveBuf = mutable.ArrayBuffer.empty[(Int, Double)]
  private var bestSoFar = 0.0

  def queries: Int = raw.size

  /** (queries-used, best-utility-so-far) after each fresh evaluation. */
  def curve: Vector[(Int, Double)] = curveBuf.toVector

  def bestUtility: Double = bestSoFar

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
    val u = if (monotone) monotoneClosure(key, rawU) else rawU
    if (fresh) {
      bestSoFar = math.max(bestSoFar, u)
      curveBuf += ((raw.size, bestSoFar))
    }
    u
  }

  /** Raw (un-certified) utility — exposed for P3 tests. */
  def queryRaw(sel: Set[Candidate]): Double = {
    query(sel) // ensure evaluated & counted
    raw(sel.map(_.id))
  }

  private def monotoneClosure(key: Set[Int], rawU: Double): Double = {
    var best = rawU
    raw.foreach { case (k, u) => if (k.subsetOf(key) && u > best) best = u }
    best
  }
}
