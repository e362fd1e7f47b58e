package repro.core

import scala.collection.mutable

import repro.profile.Profiles

/** Outcome of a goal-oriented search (METAM or a baseline).
  *
  * @param method      name of the search strategy
  * @param solution    selected augmentations
  * @param utility     utility of Γ(D_in, solution)
  * @param queriesUsed fresh utility evaluations spent
  * @param curve       (queries, best-utility-so-far) after every query
  */
final case class SearchResult(
    method: String,
    solution: Vector[Candidate],
    utility: Double,
    queriesUsed: Int,
    curve: Vector[(Int, Double)],
) {
  def utilityAt(q: Int): Double = {
    val upTo = curve.takeWhile(_._1 <= q)
    if (upTo.isEmpty) 0.0 else upTo.last._2
  }

  /** Queries spent until the utility first reached `theta`, if ever. */
  def queriesTo(theta: Double): Option[Int] = curve.find(_._2 >= theta - 1e-9).map(_._1)
}

/** Configuration of Algorithm 1: the target, the sequential round's width
  * and the seed. The rest of the method is fixed, as in the paper: the
  * ε-cover (P2) at radius [[epsilon]], Thompson-sampled group querying
  * over its clusters, monotonicity certification (P3) in
  * [[CountingUtility]], and 8 group queries at each subset size.
  *
  * @param theta     target utility threshold θ
  * @param tau       probes per sequential round; ≤0 means the paper's
  *                  default τ = |C| (one probe per cluster), capped at 25
  *                  so a commit never costs more than 25 queries
  * @param seed      seeds the ε-cover's first center and the group
  *                  sampler
  */
final case class MetamConfig(
    theta: Double = 0.95,
    tau: Int = -1,
    seed: Long = 41,
) {
  /** ε-cover radius for CLUSTER-PARTITION, the paper's default. Coarser
    * covers merge candidates of different utility into one cluster and
    * starve the per-round cluster probe: fair classification's fair and
    * unfair candidates are about 0.15 apart in profile space, and only a
    * cover this fine puts them in different clusters.
    */
  val epsilon: Double = 0.05
}

/** Algorithm 1: METAM's adaptive interventional querying strategy. */
object Metam {

  private val TauCap = 25
  /** A probe counts as a gain only above this margin over the current utility. */
  private val MinGain = 1e-9
  /** Largest subset size the combinatorial sweep enumerates. */
  private val MaxSweepSize = 8
  /** Group queries at each subset size t before t grows by one. */
  private val GroupRoundsPerSize = 8

  def run(
      cands: Vector[Candidate],
      profiles: Profiles,
      util: CountingUtility,
      cfg: MetamConfig = MetamConfig(),
  ): SearchResult = {
    require(cands.nonEmpty, "no candidate augmentations")
    val n = cands.length
    val clustering = ClusterPartition.cluster(cands.map(profiles.of), cfg.epsilon, cfg.seed)
    val clusterOf = clustering.assignment // candidate index → cluster id

    val qs = new QualityScores(profiles, cands, clustering)
    val bandit = new GroupSampler(clustering.nClusters, cfg.seed + 1)
    val tau = if (cfg.tau > 0) cfg.tau else math.min(clustering.nClusters, TauCap)

    var tStar = Vector.empty[Candidate]
    var tcStar = Vector.empty[Candidate]
    // Candidate-index state: in T*, and probed as T*+c since the last commit.
    val inSolution = new Array[Boolean](n)
    val queried = new Array[Boolean](n)
    var t = 1
    var groupsAtSize = 0
    var uD = 0.0
    var uTc = 0.0

    try {
      uD = util.baseUtility
      uTc = uD
      var exhausted = false

      while (uD < cfg.theta && uTc < cfg.theta && !exhausted) {
        // ----- sequential mechanism (blue): probe up to τ clusters, then
        // commit the best-gain augmentation.
        val blocked = new Array[Boolean](clustering.nClusters)
        val probed = mutable.ArrayBuffer.empty[(Int, Double)] // (candidate index, utility)
        var maxU = Double.NegativeInfinity
        var continue = true
        while (continue) {
          val i = qs.bestAvailable(j => !inSolution(j) && !queried(j) && !blocked(clusterOf(j)))
          if (i < 0) continue = false
          else {
            val c = cands(i)
            val u1 = util.query((tStar :+ c).toSet)
            val gain = u1 - uD
            qs.record(c, gain)
            bandit.record(clusterOf(i), gain > MinGain)
            queried(i) = true
            blocked(clusterOf(i)) = true
            probed += ((i, u1))
            maxU = math.max(maxU, u1)
            continue = probed.size < tau || maxU <= uD + MinGain
            if (probed.size >= 2 * tau) continue = false // bounded fallback round
          }
        }

        // ----- group mechanism (red): Thompson-sampled size-t subset.
        val pools: Int => Vector[Candidate] = cl =>
          clustering.members(cl).filterNot(i => inSolution(i)).map(i => cands(i))
        val g = bandit.sampleGroup(t, pools)
        if (g.nonEmpty) {
          val ug = util.query(g.toSet)
          if (ug > uTc) { tcStar = g; uTc = ug }
          groupsAtSize += 1
          if (groupsAtSize >= GroupRoundsPerSize) { t += 1; groupsAtSize = 0 }
        }

        // ----- commit P'_max if it improves utility.
        if (probed.nonEmpty) {
          val (ib, ub) = probed.maxBy { case (i, u) => (u, -cands(i).id) }
          if (ub > uD + MinGain) {
            tStar = tStar :+ cands(ib)
            inSolution(ib) = true
            uD = ub
            // New base dataset: allow re-probing candidates on top of it.
            java.util.Arrays.fill(queried, false)
          } else if ((0 until n).forall(i => inSolution(i) || queried(i))) {
            exhausted = true
          }
        } else exhausted = true
      }
      // ----- combinatorial sweep (Theorem 3): the adaptive loop exhausted
      // below θ — enumerate subsets in increasing size (candidates ordered
      // by quality score, so promising combinations come first) until θ,
      // the budget, or the size cap. This is what guarantees the optimal
      // solution is found given enough queries.
      if (exhausted && uD < cfg.theta && uTc < cfg.theta) {
        val ordered = cands.sortBy(c => (-qs.score(c), c.id))
        var size = 2
        while (size <= math.min(cands.length, MaxSweepSize) && uTc < cfg.theta) {
          val it = ordered.combinations(size)
          while (it.hasNext && uTc < cfg.theta) {
            val g = it.next().toVector
            val ug = util.query(g.toSet)
            if (ug > uTc) { tcStar = g; uTc = ug }
          }
          size += 1
        }
      }
    } catch { case _: BudgetExhausted => () }

    // ----- choose the better of T* and Tc*, then minimise it.
    val uT = safeQuery(util, tStar.toSet).getOrElse(0.0)
    val uC = if (tcStar.nonEmpty) safeQuery(util, tcStar.toSet).getOrElse(0.0) else 0.0
    var best = if (uC > uT) tcStar else tStar
    var bestU = math.max(uT, uC)
    if (best.nonEmpty) {
      val (minSet, minU) = Minimality.minimise(best, bestU, math.min(cfg.theta, bestU), util)
      best = minSet; bestU = minU
    }
    SearchResult("METAM", best, bestU, util.queries, util.curve)
  }

  private def safeQuery(util: CountingUtility, sel: Set[Candidate]): Option[Double] =
    try Some(util.query(sel)) catch { case _: BudgetExhausted => None }
}

/** IDENTIFY-MINIMAL (§IV-A): greedily drop augmentations whose removal
  * keeps utility at or above the (achieved) threshold — yielding a minimal
  * set per Definition 6.
  */
object Minimality {

  def minimise(
      solution: Vector[Candidate],
      solutionUtility: Double,
      threshold: Double,
      util: CountingUtility,
  ): (Vector[Candidate], Double) = {
    var current = solution
    var currentU = solutionUtility
    var changed = true
    try {
      while (changed) {
        changed = false
        // Try dropping each augmentation, most recently added first.
        val it = current.reverse.iterator
        while (it.hasNext && !changed) {
          val c = it.next()
          val without = current.filterNot(_.id == c.id)
          val u = util.query(without.toSet)
          if (u >= threshold - 1e-12) {
            current = without
            currentU = u
            changed = true
          }
        }
      }
    } catch { case _: BudgetExhausted => () }
    (current, currentU)
  }
}
