package repro.core

import scala.util.Random

/** IDENTIFY-GROUP (§IV-B): Thompson sampling over clusters.
  *
  * Each cluster is a Bernoulli bandit arm; the reward is "querying an
  * augmentation from this cluster increased task utility". Sampling a
  * size-`t` group draws from each arm's Beta posterior and takes the `t`
  * highest draws, then picks one (pseudo-random, seeded) candidate from
  * each selected cluster.
  */
final class GroupSampler(nClusters: Int, seed: Long) {
  require(nClusters > 0, "need at least one cluster")

  private val successes = Array.fill(nClusters)(0)
  private val failures = Array.fill(nClusters)(0)
  private val rnd = new Random(seed)

  def record(cluster: Int, success: Boolean): Unit =
    if (success) successes(cluster) += 1 else failures(cluster) += 1

  /** A Beta(a, b) draw by Jöhnk's algorithm, at most 100 tries: each try
    * draws x = U^(1/a) and y = V^(1/b) from two uniforms U, V and, if
    * x + y ≤ 1, returns x / (x + y). If no try is accepted it returns the
    * posterior mean a / (a + b). A try is accepted with probability
    * Γ(a+1)Γ(b+1)/Γ(a+b+1), so only about 30% of Beta(3, 10) draws are
    * accepted within the 100 tries; the rest are the mean.
    */
  private def betaDraw(a: Double, b: Double): Double = {
    var x = 0.0; var y = 0.0
    var tries = 0
    do {
      x = math.pow(rnd.nextDouble(), 1.0 / a)
      y = math.pow(rnd.nextDouble(), 1.0 / b)
      tries += 1
    } while (x + y > 1.0 && tries < 100)
    if (x + y <= 1.0 && x + y > 0) x / (x + y) else a / (a + b)
  }

  /** Build a size-`t` group: each slot samples a cluster from the
    * posterior (with replacement — a strong cluster may contribute several
    * members) and then a pseudo-random not-yet-chosen candidate from that
    * cluster's pool.
    */
  def sampleGroup(t: Int, pools: Int => Vector[Candidate]): Vector[Candidate] = {
    val chosen = scala.collection.mutable.LinkedHashSet.empty[Candidate]
    var stalled = false
    while (chosen.size < t && !stalled) {
      val avail = (0 until nClusters).filter(c => pools(c).exists(x => !chosen.contains(x)))
      if (avail.isEmpty) stalled = true
      else {
        val cluster = avail.maxBy(c => betaDraw(1.0 + successes(c), 1.0 + failures(c)))
        val pool = pools(cluster).filterNot(chosen.contains)
        chosen += pool(rnd.nextInt(pool.size))
      }
    }
    chosen.toVector
  }
}
