package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Algorithm 2: ε-cover of the candidate augmentations in profile space.
  *
  * Greedy k-center (Gonzalez) that keeps adding centers until every
  * augmentation is within `epsilon` of its center under the paper's
  * distance `d(P1, P2) = max_i |r1_i − r2_i|` (L∞ over profile values).
  */
object ClusterPartition {

  /** L∞ distance between two profile vectors. */
  def distance(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "profile dimension mismatch")
    var m = 0.0
    var i = 0
    while (i < a.length) { m = math.max(m, math.abs(a(i) - b(i))); i += 1 }
    m
  }

  /** A partition of candidate indices into clusters around center indices. */
  final case class Clustering(centers: Vector[Int], assignment: Array[Int]) {
    def nClusters: Int = centers.length
    def clusterOf(i: Int): Int = assignment(i)

    // One bucketing pass, so members(c) is O(1); members stay in index order.
    private lazy val buckets: Array[Vector[Int]] = {
      val bs = Array.fill(nClusters)(Vector.newBuilder[Int])
      var i = 0
      while (i < assignment.length) { bs(assignment(i)) += i; i += 1 }
      bs.map(_.result())
    }

    def members(c: Int): Vector[Int] = buckets(c)
  }

  /** Partition `vectors` into clusters of radius ≤ epsilon. Deterministic
    * given `seed` (the paper picks the first center at random).
    *
    * Each new center is the first index at the largest distance to its
    * center, and every point moves to it when strictly closer. A cluster
    * whose center is at least twice its radius (plus 1e-12 of rounding
    * slack, enough for profiles in [0,1]) from the new center is skipped,
    * as by the triangle inequality none of its members is closer to it.
    */
  def cluster(vectors: Vector[Array[Double]], epsilon: Double, seed: Long = 7): Clustering = {
    require(vectors.nonEmpty, "nothing to cluster")
    require(epsilon > 0, "epsilon must be positive")
    val vs = vectors.toArray
    val n = vs.length
    val rnd = new Random(seed)
    val centers = ArrayBuffer(rnd.nextInt(n))
    val assignment = Array.fill(n)(0)
    val distToCenter = Array.tabulate(n)(i => distance(vs(i), vs(centers.head)))
    // Per cluster: its members and its farthest member.
    val members = ArrayBuffer(Array.range(0, n))
    val farthest = ArrayBuffer(farthestOf(members.head, distToCenter))

    var next = farthest.head
    while (distToCenter(next) > epsilon) {
      val center = vs(next)
      centers += next
      val ci = centers.length - 1
      val moved = Array.newBuilder[Int]
      var k = 0
      while (k < ci) {
        // Negated, so a NaN distance or radius scans the cluster.
        if (!(distance(vs(centers(k)), center) >= 2 * distToCenter(farthest(k)) + 1e-12)) {
          val stay = Array.newBuilder[Int]
          members(k).foreach { i =>
            val d = distance(vs(i), center)
            if (d < distToCenter(i)) { distToCenter(i) = d; assignment(i) = ci; moved += i }
            else stay += i
          }
          members(k) = stay.result()
          farthest(k) = farthestOf(members(k), distToCenter)
        }
        k += 1
      }
      members += moved.result()
      farthest += farthestOf(members(ci), distToCenter)
      next = farthestOf(farthest.toArray, distToCenter)
    }
    Clustering(centers.toVector, assignment)
  }

  /** The first index of `idx` at the largest distance under `Double.compare`. */
  private def farthestOf(idx: Array[Int], dist: Array[Double]): Int = {
    var best = idx(0)
    var j = 1
    while (j < idx.length) {
      val i = idx(j)
      val c = java.lang.Double.compare(dist(i), dist(best))
      if (c > 0 || (c == 0 && i < best)) best = i
      j += 1
    }
    best
  }

  /** The "no clustering" degenerate partition (ablation variant Nc). */
  def singletons(n: Int): Clustering =
    Clustering((0 until n).toVector, Array.tabulate(n)(identity))
}
