package repro.core

import scala.collection.mutable

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import repro.profile.Profiles

class QualityScoresSpec extends AnyFunSuite with PropSupport {

  private val names = Vector("corr", "mi", "embed", "meta", "overlap")

  /** n candidates with given profile vectors. */
  private def setup(vectors: Vector[Array[Double]], epsilon: Double = 0.2) = {
    val cands = vectors.indices.map(i => Candidate(i, Vector(JoinEdge("key", s"t$i", "key")), "v")).toVector
    val profiles = Profiles(names, vectors.indices.map(i => i -> vectors(i)).toMap)
    val clustering = ClusterPartition.cluster(vectors, epsilon, seed = 1)
    (cands, profiles, new QualityScores(profiles, cands, clustering))
  }

  test("initial weights are uniform and scores equal mean profile value") {
    val (cands, _, qs) = setup(Vector(Array(1.0, 0.0, 0.0, 0.0, 0.0), Array(0.2, 0.2, 0.2, 0.2, 0.2)))
    assert(qs.weightsSnapshot.toSeq == Seq.fill(5)(0.2))
    assert(math.abs(qs.profileScore(cands(0)) - 0.2) < 1e-12)
    assert(math.abs(qs.profileScore(cands(1)) - 0.2) < 1e-12)
  }

  test("utility score of an observed candidate is its recorded gain") {
    val (cands, _, qs) = setup(Vector(Array(0.5, 0.5, 0.5, 0.5, 0.5), Array(0.9, 0.9, 0.9, 0.9, 0.9)))
    qs.record(cands(0), 0.3)
    assert(qs.utilityScore(cands(0)) == 0.3)
  }

  test("negative gains are clamped to zero") {
    val (cands, _, qs) = setup(Vector(Array(0.5, 0.5, 0.5, 0.5, 0.5)))
    qs.record(cands(0), -0.4)
    assert(qs.utilityScore(cands(0)) == 0.0)
  }

  test("gain propagates to cluster mates scaled by (1 - distance)") {
    val a = Array(0.50, 0.5, 0.5, 0.5, 0.5)
    val b = Array(0.55, 0.5, 0.5, 0.5, 0.5) // same cluster at eps=0.2, d=0.05
    val (cands, _, qs) = setup(Vector(a, b))
    qs.record(cands(0), 0.4)
    assert(math.abs(qs.utilityScore(cands(1)) - 0.95 * 0.4) < 1e-9)
  }

  test("no propagation across clusters") {
    val (cands, _, qs) = setup(Vector(Array(0.1, 0.1, 0.1, 0.1, 0.1), Array(0.9, 0.9, 0.9, 0.9, 0.9)))
    qs.record(cands(0), 0.4)
    assert(qs.utilityScore(cands(1)) == 0.0)
  }

  test("inhomogeneous clusters stop propagating (P2 fallback)") {
    val close = Vector(
      Array(0.50, 0.5, 0.5, 0.5, 0.5),
      Array(0.52, 0.5, 0.5, 0.5, 0.5),
      Array(0.54, 0.5, 0.5, 0.5, 0.5),
    )
    val (cands, _, qs) = setup(close)
    qs.record(cands(0), 0.5)
    qs.record(cands(1), 0.0) // disagreement 0.5 > tolerance → flag
    assert(qs.isInhomogeneous(0) || qs.isInhomogeneous(1) || qs.isInhomogeneous(2))
    assert(qs.utilityScore(cands(2)) == 0.0)
  }

  test("weights refit identifies the informative profile (Lemma 4 shape)") {
    val rnd = new scala.util.Random(21)
    val vectors = Vector.fill(40)(Array.fill(5)(rnd.nextDouble()))
    val (cands, _, qs) = setup(vectors, epsilon = 0.01)
    // Gain is exactly the corr profile (index 0): importance should concentrate there.
    vectors.indices.foreach(i => qs.record(cands(i), vectors(i)(0)))
    val w = qs.weightsSnapshot
    assert(w(0) > 0.5, s"corr weight should dominate, got ${w.toSeq}")
    assert(math.abs(w.map(math.abs).sum - 1.0) < 1e-9)
  }

  test("a profile that anti-predicts gain gets a negative weight") {
    val rnd = new scala.util.Random(23)
    val vectors = Vector.fill(40)(Array.fill(5)(rnd.nextDouble()))
    val cands = vectors.indices.map(i => Candidate(i, Vector(JoinEdge("key", s"t$i", "key")), "v")).toVector
    val profiles = Profiles(names, vectors.indices.map(i => i -> vectors(i)).toMap)
    val clustering = ClusterPartition.cluster(vectors, 0.01, seed = 1)
    val qs = new QualityScores(profiles, cands, clustering)
    // Gain DECREASES in profile 2 (embed): candidates with high embed are useless.
    vectors.indices.foreach(i => qs.record(cands(i), math.max(0.0, 0.9 - vectors(i)(2))))
    assert(qs.weightsSnapshot(2) < 0.0)
  }

  test("profile score uses learned weights") {
    val rnd = new scala.util.Random(22)
    val vectors = Vector.fill(40)(Array.fill(5)(rnd.nextDouble()))
    val (cands, _, qs) = setup(vectors, epsilon = 0.01)
    vectors.indices.foreach(i => qs.record(cands(i), vectors(i)(0)))
    val hi = Candidate(100, Vector(JoinEdge("key", "hi", "key")), "v")
    val lo = Candidate(101, Vector(JoinEdge("key", "lo", "key")), "v")
    val profiles2 = Profiles(names,
      (vectors.indices.map(i => i -> vectors(i)) ++ Seq(100 -> Array(0.9, 0.1, 0.1, 0.1, 0.1), 101 -> Array(0.1, 0.9, 0.9, 0.9, 0.9))).toMap)
    val clustering = ClusterPartition.cluster(vectors, 0.01, seed = 1)
    val qs2 = new QualityScores(profiles2, cands, clustering)
    vectors.indices.foreach(i => qs2.record(cands(i), vectors(i)(0)))
    assert(qs2.profileScore(hi) > qs2.profileScore(lo))
  }

  test("score is the sum of profile and utility components") {
    val (cands, _, qs) = setup(Vector(Array(0.4, 0.4, 0.4, 0.4, 0.4)))
    qs.record(cands(0), 0.25)
    assert(math.abs(qs.score(cands(0)) - (qs.profileScore(cands(0)) + 0.25)) < 1e-12)
  }

  test("observations counter tracks recorded queries") {
    val (cands, _, qs) = setup(Vector(Array(0.4, 0.4, 0.4, 0.4, 0.4), Array(0.6, 0.6, 0.6, 0.6, 0.6)))
    assert(qs.observations == 0)
    qs.record(cands(0), 0.1)
    qs.record(cands(1), 0.2)
    assert(qs.observations == 2)
  }

  test("bestAvailable picks what the naive filter-and-maxBy reference picks") {
    // Profiles on a coarse grid, so duplicate vectors tie on score; shuffled
    // ids, so the id tie-break differs from index order; gains include
    // negatives and repeats, and clusters can turn inhomogeneous.
    val vecGen = Gen.listOfN(5, Gen.oneOf(0.0, 0.1, 0.5, 0.55, 0.9)).map(_.toArray)
    val gen = for {
      n <- Gen.choose(1, 25)
      vectors <- Gen.listOfN(n, vecGen)
      ids <- Gen.pick(n, 0 until 100)
      order <- Gen.long
      eps <- Gen.oneOf(0.05, 0.2, 0.6)
      records <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(-0.3, 0.8)))
      masks <- Gen.listOfN(records.size + 1, Gen.listOfN(n, Gen.oneOf(true, true, false)))
    } yield (vectors.toVector, new scala.util.Random(order).shuffle(ids.toVector), eps, records, masks)

    checkProp(Prop.forAll(gen) { case (vectors, ids, eps, records, masks) =>
      val cands = ids.map(id => Candidate(id, Vector(JoinEdge("key", s"t$id", "key")), "v"))
      val profiles = Profiles(names, ids.zip(vectors).toMap)
      val clustering = ClusterPartition.cluster(vectors, eps, seed = 2)
      val qs = new QualityScores(profiles, cands, clustering)
      val gains = mutable.Map.empty[Int, Double] // candidate index → clamped gain
      val inhomogeneous = mutable.Set.empty[Int]

      // The utility-based score recomputed from scratch.
      def naiveUtility(j: Int): Double = gains.getOrElse(j, {
        val cl = clustering.clusterOf(j)
        val mates = clustering.members(cl).filter(gains.contains)
        if (inhomogeneous(cl) || mates.isEmpty) 0.0
        else mates.map(m => math.max(0.0, (1.0 - ClusterPartition.distance(vectors(j), vectors(m))) * gains(m))).max
      })

      def agrees(mask: List[Boolean]): Boolean = {
        val ok = mask.toArray
        val avail = cands.filter(c => ok(cands.indexOf(c)))
        val expected = if (avail.isEmpty) -1 else cands.indexOf(avail.maxBy(c => (qs.score(c), -c.id)))
        qs.bestAvailable(i => ok(i)) == expected &&
          cands.indices.forall { i =>
            qs.utilityScore(cands(i)) == naiveUtility(i) &&
              qs.score(cands(i)) == qs.profileScore(cands(i)) + qs.utilityScore(cands(i))
          }
      }

      agrees(masks.head) && records.zip(masks.tail).forall { case ((i, g), mask) =>
        qs.record(cands(i), g)
        gains(i) = math.max(0.0, g)
        val cl = clustering.clusterOf(i)
        val observed = clustering.members(cl).flatMap(gains.get)
        if (observed.size >= 2 && observed.max - observed.min > 0.15) inhomogeneous += cl
        agrees(mask)
      }
    }, tries = 200)
  }
}
