package repro.core

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
    */
  def cluster(vectors: Vector[Array[Double]], epsilon: Double, seed: Long = 7): Clustering = {
    require(vectors.nonEmpty, "nothing to cluster")
    require(epsilon > 0, "epsilon must be positive")
    val vs = vectors.toArray
    val n = vs.length
    val rnd = new Random(seed)
    val centers = scala.collection.mutable.ArrayBuffer(rnd.nextInt(n))
    val assignment = Array.fill(n)(0)
    val distToCenter = Array.tabulate(n)(i => distance(vs(i), vs(centers.head)))

    var farthest = argmax(distToCenter)
    while (distToCenter(farthest) > epsilon) {
      val center = vs(farthest)
      centers += farthest
      val ci = centers.length - 1
      var i = 0
      while (i < n) {
        val d = distance(vs(i), center)
        if (d < distToCenter(i)) { distToCenter(i) = d; assignment(i) = ci }
        i += 1
      }
      farthest = argmax(distToCenter)
    }
    Clustering(centers.toVector, assignment)
  }

  /** Index of the first maximum under `Double.compare`, as `maxBy` picks. */
  private def argmax(xs: Array[Double]): Int = {
    var best = 0
    var i = 1
    while (i < xs.length) { if (java.lang.Double.compare(xs(i), xs(best)) > 0) best = i; i += 1 }
    best
  }

  /** The "no clustering" degenerate partition (ablation variant Nc). */
  def singletons(n: Int): Clustering =
    Clustering((0 until n).toVector, Array.tabulate(n)(identity))
}
