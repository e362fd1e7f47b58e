package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import repro.PropSupport

class ClusterPartitionSpec extends AnyFunSuite with PropSupport {

  private val vecGen: Gen[Array[Double]] = Gen.listOfN(3, Gen.choose(0.0, 1.0)).map(_.toArray)

  /** The unpruned greedy k-center loop: every point is measured against
    * every new center.
    */
  private def fullScanCover(vectors: Vector[Array[Double]], epsilon: Double, seed: Long): (Vector[Int], Vector[Int]) = {
    val vs = vectors.toArray
    val n = vs.length
    val centers = scala.collection.mutable.ArrayBuffer(new scala.util.Random(seed).nextInt(n))
    val assignment = Array.fill(n)(0)
    val distToCenter = Array.tabulate(n)(i => ClusterPartition.distance(vs(i), vs(centers.head)))
    def argmax: Int = distToCenter.indices.reduceLeft((b, i) => if (java.lang.Double.compare(distToCenter(i), distToCenter(b)) > 0) i else b)
    var farthest = argmax
    while (distToCenter(farthest) > epsilon) {
      val center = vs(farthest)
      centers += farthest
      vs.indices.foreach { i =>
        val d = ClusterPartition.distance(vs(i), center)
        if (d < distToCenter(i)) { distToCenter(i) = d; assignment(i) = centers.length - 1 }
      }
      farthest = argmax
    }
    (centers.toVector, assignment.toVector)
  }

  test("distance is L-infinity") {
    assert(ClusterPartition.distance(Array(0.0, 0.5), Array(0.3, 0.6)) == 0.3)
  }

  test("distance rejects mismatched dimensions") {
    intercept[IllegalArgumentException](ClusterPartition.distance(Array(0.0), Array(0.0, 1.0)))
  }

  test("distance is symmetric and zero on identical vectors") {
    checkProp(Prop.forAll(vecGen, vecGen) { (a, b) =>
      ClusterPartition.distance(a, b) == ClusterPartition.distance(b, a) &&
        ClusterPartition.distance(a, a) == 0.0
    })
  }

  test("every point ends within epsilon of its center (the ε-cover invariant)") {
    checkProp(Prop.forAll(Gen.listOfN(40, vecGen), Gen.choose(0.05, 0.5)) { (vs, eps) =>
      val vectors = vs.toVector
      val c = ClusterPartition.cluster(vectors, eps, seed = 3)
      vectors.indices.forall { i =>
        ClusterPartition.distance(vectors(i), vectors(c.centers(c.clusterOf(i)))) <= eps + 1e-12
      }
    })
  }

  test("assignment is a partition (every point assigned to an existing cluster)") {
    checkProp(Prop.forAll(Gen.listOfN(30, vecGen)) { vs =>
      val c = ClusterPartition.cluster(vs.toVector, 0.2, seed = 5)
      vs.indices.forall(i => c.clusterOf(i) >= 0 && c.clusterOf(i) < c.nClusters) &&
        (0 until c.nClusters).map(c.members(_).size).sum == vs.size
    })
  }

  test("identical vectors collapse to one cluster") {
    val vs = Vector.fill(10)(Array(0.4, 0.4))
    val c = ClusterPartition.cluster(vs, 0.05)
    assert(c.nClusters == 1)
    assert(c.members(0).size == 10)
  }

  test("well-separated groups get separate clusters") {
    val vs = Vector.fill(5)(Array(0.0, 0.0)) ++ Vector.fill(5)(Array(1.0, 1.0))
    val c = ClusterPartition.cluster(vs, 0.1)
    assert(c.nClusters == 2)
    assert(c.members(c.clusterOf(0)).toSet == Set(0, 1, 2, 3, 4))
  }

  test("smaller epsilon gives at least as many clusters") {
    val rnd = new scala.util.Random(11)
    val vs = Vector.fill(60)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val coarse = ClusterPartition.cluster(vs, 0.4, seed = 1).nClusters
    val fine = ClusterPartition.cluster(vs, 0.05, seed = 1).nClusters
    assert(fine >= coarse)
  }

  test("clustering is deterministic in the seed") {
    val rnd = new scala.util.Random(12)
    val vs = Vector.fill(30)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val a = ClusterPartition.cluster(vs, 0.2, seed = 9)
    val b = ClusterPartition.cluster(vs, 0.2, seed = 9)
    assert(a.centers == b.centers && a.assignment.toSeq == b.assignment.toSeq)
  }

  test("cluster count is bounded by the ε-packing bound (Lemma 2 shape)") {
    val rnd = new scala.util.Random(13)
    val vs = Vector.fill(200)(Array(rnd.nextDouble()))
    val eps = 0.1
    val c = ClusterPartition.cluster(vs, eps, seed = 2)
    // 1-D unit interval: centers are pairwise > eps apart → at most 1/eps + 1.
    assert(c.nClusters <= (1.0 / eps).toInt + 1)
  }

  test("centers are pairwise more than epsilon apart") {
    val rnd = new scala.util.Random(14)
    val vs = Vector.fill(80)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val eps = 0.15
    val c = ClusterPartition.cluster(vs, eps, seed = 4)
    for (i <- c.centers.indices; j <- c.centers.indices if i < j)
      assert(ClusterPartition.distance(vs(c.centers(i)), vs(c.centers(j))) > eps)
  }

  test("cluster rejects empty input and non-positive epsilon") {
    intercept[IllegalArgumentException](ClusterPartition.cluster(Vector.empty, 0.1))
    intercept[IllegalArgumentException](ClusterPartition.cluster(Vector(Array(0.1)), 0.0))
  }

  test("members(c) equals the filter-based reference, in index order") {
    checkProp(Prop.forAll(Gen.listOfN(40, vecGen), Gen.choose(0.05, 0.5)) { (vs, eps) =>
      val c = ClusterPartition.cluster(vs.toVector, eps, seed = 6)
      (0 until c.nClusters).forall { cl =>
        c.members(cl) == c.assignment.indices.filter(c.assignment(_) == cl).toVector
      }
    })
  }

  test("with duplicate vectors, each new center is the first index at the largest distance") {
    // A coarse grid makes many points tie for the farthest one.
    val gridVec = Gen.listOfN(2, Gen.oneOf(0.0, 0.5, 1.0)).map(_.toArray)
    checkProp(Prop.forAll(Gen.listOfN(30, gridVec), Gen.choose(0L, 1000L)) { (vs, seed) =>
      val vectors = vs.toVector
      val c = ClusterPartition.cluster(vectors, 0.1, seed)
      c.centers.head == new scala.util.Random(seed).nextInt(vectors.length) &&
        c.centers.indices.tail.forall { k =>
          val toCenters = vectors.map(v => c.centers.take(k).map(j => ClusterPartition.distance(v, vectors(j))).min)
          c.centers(k) == toCenters.indices.maxBy(toCenters)
        }
    })
  }

  test("the pruned cover picks the same centers and assignment as the full scan") {
    val gridVec = Gen.listOfN(3, Gen.oneOf(0.0, 0.25, 0.5, 1.0)).map(_.toArray)
    val vectors = Gen.oneOf(
      Gen.listOfN(120, vecGen),
      Gen.listOfN(120, Gen.oneOf(vecGen, gridVec)),
      Gen.listOfN(30, vecGen).flatMap(base => Gen.listOfN(120, Gen.oneOf(base))),
    )
    checkProp(Prop.forAll(vectors, Gen.oneOf(0.01, 0.02, 0.05, 0.1, 0.2, 0.5), Gen.choose(0L, 1000L)) { (vs, eps, seed) =>
      val c = ClusterPartition.cluster(vs.toVector, eps, seed)
      (c.centers, c.assignment.toVector) == fullScanCover(vs.toVector, eps, seed)
    }, tries = 200)
  }
}
