package repro.baselines

import scala.collection.mutable
import scala.util.Random

import repro.core.{BudgetExhausted, Candidate, CountingUtility, Metam, SearchResult}
import repro.profile.Profiles

/** The discover-then-augment baselines of §III-A / §VI adapted to the
  * interventional setting: each queries candidates in some order and
  * greedily keeps those that improve utility, until θ or the budget.
  */
object Baselines {

  /** The greedy loop over a fixed candidate ordering. */
  def greedyOrdered(
      method: String,
      ordered: Vector[Candidate],
      util: CountingUtility,
      theta: Double,
  ): SearchResult = {
    val it = ordered.iterator
    greedy(method, util, theta, () => it.nextOption(), _ => ())
  }

  /** Overlap ranking (S4 / Ver style): non-increasing join overlap. */
  def overlapRanking(cands: Vector[Candidate], profiles: Profiles, util: CountingUtility, theta: Double): SearchResult = {
    val oi = profiles.profileIndex("overlap")
    val ordered = cands.sortBy(c => (-profiles.of(c)(oi), c.id))
    greedyOrdered("Overlap", ordered, util, theta)
  }

  /** Uniform random querying order (seeded). */
  def uniformSampling(cands: Vector[Candidate], util: CountingUtility, theta: Double, seed: Long): SearchResult = {
    val ordered = new Random(seed).shuffle(cands)
    greedyOrdered("Uniform", ordered, util, theta)
  }

  /** Randomized multiplicative-weights over profile "experts" (§III-A):
    * each step samples an expert proportionally to its weight, queries the
    * expert's best-ranked unqueried candidate, and multiplies the expert's
    * weight by 1.3 on success and by 0.7 on failure.
    */
  def multiplicativeWeights(
      cands: Vector[Candidate],
      profiles: Profiles,
      util: CountingUtility,
      theta: Double,
      seed: Long = 97,
  ): SearchResult = {
    val eta = 0.3
    val l = profiles.dim
    val weights = Array.fill(l)(1.0)
    val rnd = new Random(seed)
    val rankings: Vector[Vector[Candidate]] =
      (0 until l).map(j => cands.sortBy(c => (-profiles.of(c)(j), c.id))).toVector
    val queried = mutable.Set.empty[Int]
    var j = 0 // the expert drawn last
    def draw(): Option[Candidate] =
      if (queried.size >= cands.size) None
      else {
        var d = rnd.nextDouble() * weights.sum
        j = 0
        while (j < l - 1 && d > weights(j)) { d -= weights(j); j += 1 }
        rankings(j).find(c => queried.add(c.id)) // marks the first unqueried one
      }
    greedy("MW", util, theta, () => draw(), kept => weights(j) *= (if (kept) 1.0 + eta else 1.0 - eta))
  }

  /** Query the candidates `next` hands out on top of the solution, keeping
    * each that gains more than `Metam.MinGain`, until θ, the budget, or
    * `next` has none left; `kept` hears whether each was kept.
    */
  private def greedy(
      method: String,
      util: CountingUtility,
      theta: Double,
      next: () => Option[Candidate],
      kept: Boolean => Unit,
  ): SearchResult = {
    var solution = Vector.empty[Candidate]
    try {
      var uD = util.baseUtility
      var done = false
      while (uD < theta && !done) next() match {
        case None => done = true
        case Some(c) =>
          val u1 = util.query((solution :+ c).toSet)
          val gain = u1 > uD + Metam.MinGain
          if (gain) { solution = solution :+ c; uD = u1 }
          kept(gain)
      }
    } catch { case _: BudgetExhausted => () }
    util.result(method, solution)
  }
}
