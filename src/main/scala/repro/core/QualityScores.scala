package repro.core

import scala.collection.mutable

import repro.profile.Profiles
import repro.util.{LinAlg, Stats}

/** Quality-score estimation (§IV-B): ranks candidates by the expectation
  * of improving task utility.
  *
  * The score is the sum of
  *  - a **profile-based score**: weighted average of profile values, where
  *    profile importance weights start uniform and are re-estimated from
  *    observed (profile-vector → utility-gain) pairs with the closed-form
  *    ridge fit of Lemma 4, and
  *  - a **utility-based score**: the observed gain of the candidate, or —
  *    if only a cluster-mate P' was queried — `(1 − d(P, P')) · gain(P')`
  *    (propagation uses property P2 and is disabled for clusters flagged
  *    inhomogeneous).
  *
  * Cost: the propagated utility score is cached per candidate and
  * [[record]] recomputes it only for the recorded candidate's cluster, the
  * only scores a record can change. The ridge refit changes every profile
  * score, so [[bestAvailable]] ranks all n candidates afresh, in one
  * O(n·l) pass over flat arrays per probe.
  */
final class QualityScores(
    profiles: Profiles,
    cands: Vector[Candidate],
    clustering: ClusterPartition.Clustering,
) {
  import QualityScores._

  private val n = cands.length
  private val l = profiles.dim
  private val index: Map[Int, Int] = cands.map(_.id).zipWithIndex.toMap
  private val ids: Array[Int] = cands.map(_.id).toArray
  private val vecs: Array[Array[Double]] = cands.map(profiles.of).toArray

  private var weights: Array[Double] = Array.fill(l)(1.0 / l)
  private var wsum: Double = absSum(weights)
  private val gain = new Array[Double](n)        // observed gain, by candidate index
  private val observed = new Array[Boolean](n)
  private val observedIdx = mutable.ArrayBuffer.empty[Int] // in ascending id order, the ridge fit's row order
  // Observed members of each cluster, for propagation and the homogeneity test.
  private val observedIn = Array.fill(clustering.nClusters)(mutable.ArrayBuffer.empty[Int])
  private val inhomogeneous = new Array[Boolean](clustering.nClusters)
  private val utility = new Array[Double](n)     // cached utility-based score

  def weightsSnapshot: Array[Double] = weights.clone()
  def isInhomogeneous(cluster: Int): Boolean = inhomogeneous(cluster)
  def observations: Int = observedIdx.size

  /** Record the observed utility gain of a queried candidate, refit the
    * profile-importance weights, and flag the candidate's cluster as
    * inhomogeneous when members disagree by more than the tolerance
    * (the paper's homogeneity test — propagation then stops, §IV-B
    * "What to do when profiles are not useful?").
    */
  def record(c: Candidate, g: Double): Unit = {
    val i = index(c.id)
    val cl = clustering.clusterOf(i)
    gain(i) = math.max(0.0, g)
    if (!observed(i)) {
      observed(i) = true; observedIn(cl) += i
      observedIdx.insert(observedIdx.lastIndexWhere(m => ids(m) <= ids(i)) + 1, i)
    }
    refitWeights()
    val memberGains = observedIn(cl).map(m => gain(m))
    if (memberGains.size >= 2 && memberGains.max - memberGains.min > HomogeneityTolerance)
      inhomogeneous(cl) = true
    clustering.members(cl).foreach(j => utility(j) = propagated(j, cl))
  }

  /** Weighted-average profile score (the prior from dataset properties).
    * Weights are the *signed* ridge coefficients normalised by Σ|w|
    * (Lemma 4): a profile that anti-predicts gain (e.g. high correlation
    * concentrated on useless candidates) actively demotes its carriers.
    */
  def profileScore(c: Candidate): Double = profileScore(profiles.of(c))

  private def profileScore(p: Array[Double]): Double =
    if (wsum < 1e-12) Stats.mean(p)
    else LinAlg.dot(weights, p) / wsum

  /** Propagated utility score (0 when nothing relevant was observed). */
  def utilityScore(c: Candidate): Double = utility(index(c.id))

  /** Total quality score = profile-based + utility-based. */
  def score(c: Candidate): Double = scoreAt(index(c.id))

  private def scoreAt(i: Int): Double = profileScore(vecs(i)) + utility(i)

  /** Index (into `cands`) of the highest-scoring candidate whose index
    * passes `ok`, ties broken towards the smaller id — the candidate
    * `maxBy(c => (score(c), -c.id))` picks — or -1 if none passes.
    */
  def bestAvailable(ok: Int => Boolean): Int = {
    var best = -1
    var bestScore = 0.0
    var i = 0
    while (i < n) {
      if (ok(i)) {
        val s = scoreAt(i)
        val cmp = if (best < 0) 1 else java.lang.Double.compare(s, bestScore)
        if (cmp > 0 || (cmp == 0 && ids(i) < ids(best))) { best = i; bestScore = s }
      }
      i += 1
    }
    best
  }

  /** Utility-based score of candidate index `j` in cluster `cl`: its own
    * gain if observed, else the best `(1 − d) · gain` over observed mates.
    */
  private def propagated(j: Int, cl: Int): Double =
    if (observed(j)) gain(j)
    else if (inhomogeneous(cl)) 0.0
    else {
      var best = 0.0
      observedIn(cl).foreach { m =>
        val d = ClusterPartition.distance(vecs(j), vecs(m))
        best = math.max(best, math.max(0.0, (1.0 - d) * gain(m)))
      }
      best
    }

  /** Ridge refit of profile importances once enough observations exist
    * (the closed-form estimator of Lemma 4). Coefficients keep their sign;
    * normalisation by Σ|w| only fixes the scale.
    */
  private def refitWeights(): Unit = {
    if (observedIdx.size < l + 2) return
    val coef = LinAlg.ridge(observedIdx.map(i => vecs(i)).toArray, observedIdx.map(i => gain(i)).toArray, RidgeLambda)
    val s = absSum(coef)
    weights = if (s < 1e-12) Array.fill(l)(1.0 / l) else coef.map(_ / s)
    wsum = absSum(weights)
  }

  private def absSum(xs: Array[Double]): Double = xs.map(math.abs).sum
}

object QualityScores {
  /** Ridge penalty of the Lemma 4 profile-importance fit. */
  private val RidgeLambda = 0.5
  /** Largest spread of observed member gains a cluster may show and still propagate. */
  private val HomogeneityTolerance = 0.15
}
