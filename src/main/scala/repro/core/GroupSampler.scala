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

  /** Beta(1+s, 1+f) draw via the Jöhnk/gamma-free approximation: the mean
    * of `s+f+1` uniforms ordered — we use the simpler inverse-free method
    * of drawing the max of shape parameters with uniform powers, which is
    * exact for Beta(a,1) and Beta(1,b) and adequate as a ranking signal.
    */
  private def betaDraw(a: Double, b: Double): Double = {
    // Draw via the ratio of powered uniforms (Jöhnk's algorithm).
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
