package repro.baselines

import scala.collection.mutable
import scala.util.Random

import repro.core.{BudgetExhausted, Candidate, CountingUtility, SearchResult}
import repro.profile.Profiles

/** The discover-then-augment baselines of §III-A / §VI adapted to the
  * interventional setting: each queries candidates in some order and
  * greedily keeps those that improve utility, until θ or the budget.
  */
object Baselines {

  /** Shared greedy loop over a fixed candidate ordering. */
  def greedyOrdered(
      method: String,
      ordered: Vector[Candidate],
      util: CountingUtility,
      theta: Double,
  ): SearchResult = {
    var solution = Vector.empty[Candidate]
    try {
      var uD = util.baseUtility
      val it = ordered.iterator
      while (uD < theta && it.hasNext) {
        val c = it.next()
        val u1 = util.query((solution :+ c).toSet)
        if (u1 > uD + 1e-9) { solution = solution :+ c; uD = u1 }
      }
    } catch { case _: BudgetExhausted => () }
    finish(method, solution, util)
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

  /** iARDA: ARDA's feature-importance ranking (its importance score maps
    * to the correlation profile here) queried in decreasing order —
    * "augmentations are queried in decreasing order of ranking returned
    * by [ARDA]".
    */
  def iArda(cands: Vector[Candidate], profiles: Profiles, util: CountingUtility, theta: Double): SearchResult = {
    val ci = profiles.profileIndex("corr")
    val mi = profiles.profileIndex("mi")
    val ordered = cands.sortBy(c => (-(profiles.of(c)(ci) + profiles.of(c)(mi)), c.id))
    greedyOrdered("iARDA", ordered, util, theta).copy(method = "iARDA")
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
    var solution = Vector.empty[Candidate]
    try {
      var uD = util.baseUtility
      var exhausted = false
      while (uD < theta && !exhausted) {
        if (queried.size + solution.size >= cands.size) exhausted = true
        else {
          val total = weights.sum
          var draw = rnd.nextDouble() * total
          var j = 0
          while (j < l - 1 && draw > weights(j)) { draw -= weights(j); j += 1 }
          rankings(j).find(c => !queried.contains(c.id) && !solution.exists(_.id == c.id)) match {
            case None => exhausted = true
            case Some(c) =>
              val u1 = util.query((solution :+ c).toSet)
              queried += c.id
              if (u1 > uD + 1e-9) {
                solution = solution :+ c
                uD = u1
                weights(j) *= (1.0 + eta)
              } else weights(j) *= (1.0 - eta)
          }
        }
      }
    } catch { case _: BudgetExhausted => () }
    finish("MW", solution, util)
  }

  /** Join Everything (§II-C): a single query with every candidate. */
  def joinEverything(cands: Vector[Candidate], util: CountingUtility): SearchResult = {
    try util.query(cands.toSet)
    catch { case _: BudgetExhausted => () }
    finish("JoinEverything", cands, util)
  }

  /** Brute-force subset enumeration in increasing size order — the
    * O(2^n) oracle of §III-A. Only for tiny candidate sets in tests; the
    * first subset reaching θ is size-minimal by construction.
    */
  def exhaustive(cands: Vector[Candidate], util: CountingUtility, theta: Double): SearchResult = {
    var best = Vector.empty[Candidate]
    try {
      util.baseUtility
      var found = false
      var size = 1
      while (!found && size <= cands.length) {
        cands.combinations(size).foreach { combo =>
          if (!found && util.query(combo.toSet) >= theta) { best = combo; found = true }
        }
        size += 1
      }
    } catch { case _: BudgetExhausted => () }
    finish("Exhaustive", best, util)
  }

  private def finish(method: String, solution: Vector[Candidate], util: CountingUtility): SearchResult = {
    val u = try util.query(solution.toSet) catch { case _: BudgetExhausted => util.bestUtility }
    SearchResult(method, solution, u, util.queries, util.curve)
  }
}
