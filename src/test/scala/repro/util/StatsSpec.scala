package repro.util

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import repro.PropSupport

class StatsSpec extends AnyFunSuite with PropSupport {

  private def some(xs: Double*): Array[Option[Double]] = xs.map(Option(_)).toArray

  test("mean of empty is 0") { assert(Stats.mean(Array.empty) == 0.0) }

  test("mean of constants") { assert(Stats.mean(Array(2.0, 2.0, 2.0)) == 2.0) }

  test("std of constants is 0") { assert(Stats.std(Array(5.0, 5.0)) == 0.0) }

  test("std of {0,2} is 1") { assert(math.abs(Stats.std(Array(0.0, 2.0)) - 1.0) < 1e-12) }

  test("pearson of identical vectors is 1") {
    val x = some(1, 2, 3, 4, 5)
    assert(math.abs(Stats.pearson(x, x) - 1.0) < 1e-12)
  }

  test("pearson of negated vector is -1") {
    val x = some(1, 2, 3, 4, 5)
    val y = some(-1, -2, -3, -4, -5)
    assert(math.abs(Stats.pearson(x, y) + 1.0) < 1e-12)
  }

  test("pearson with constant side is 0") {
    assert(Stats.pearson(some(1, 1, 1, 1), some(1, 2, 3, 4)) == 0.0)
  }

  test("pearson with fewer than 3 pairs is 0") {
    assert(Stats.pearson(some(1, 2), some(3, 4)) == 0.0)
  }

  test("pearson skips missing pairs") {
    val x: Array[Option[Double]] = Array(Some(1.0), None, Some(2.0), Some(3.0), Some(4.0))
    val y: Array[Option[Double]] = Array(Some(2.0), Some(9.0), Some(4.0), Some(6.0), Some(8.0))
    assert(math.abs(Stats.pearson(x, y) - 1.0) < 1e-12)
  }

  test("pearson rejects mismatched lengths") {
    intercept[IllegalArgumentException](Stats.pearson(some(1, 2), some(1, 2, 3)))
  }

  test("pearson is symmetric") {
    checkProp(Prop.forAll(Gen.listOfN(10, Gen.choose(-5.0, 5.0)), Gen.listOfN(10, Gen.choose(-5.0, 5.0))) { (a, b) =>
      val x = some(a: _*); val y = some(b: _*)
      math.abs(Stats.pearson(x, y) - Stats.pearson(y, x)) < 1e-12
    })
  }

  test("pearson bounded in [-1,1]") {
    checkProp(Prop.forAll(Gen.listOfN(20, Gen.choose(-100.0, 100.0)), Gen.listOfN(20, Gen.choose(-100.0, 100.0))) { (a, b) =>
      val r = Stats.pearson(some(a: _*), some(b: _*))
      r >= -1.0 - 1e-9 && r <= 1.0 + 1e-9
    })
  }

  test("fisher p-value small for strong correlation on many samples") {
    assert(Stats.fisherPValue(0.8, 100) < 1e-6)
  }

  test("fisher p-value large for weak correlation on few samples") {
    assert(Stats.fisherPValue(0.1, 10) > 0.5)
  }

  test("fisher p-value is 1 for tiny samples") {
    assert(Stats.fisherPValue(0.99, 3) == 1.0)
  }

  test("fisher p-value symmetric in sign of r") {
    assert(math.abs(Stats.fisherPValue(0.5, 50) - Stats.fisherPValue(-0.5, 50)) < 1e-12)
  }

  test("stdNormalCdf at 0 is 0.5") {
    assert(math.abs(Stats.stdNormalCdf(0.0) - 0.5) < 1e-7)
  }

  test("stdNormalCdf at 1.96 approx 0.975") {
    assert(math.abs(Stats.stdNormalCdf(1.96) - 0.975) < 1e-3)
  }

  test("erf is odd") {
    checkProp(Prop.forAll(Gen.choose(0.0, 3.0)) { x =>
      math.abs(Stats.erf(x) + Stats.erf(-x)) < 1e-12
    })
  }

  test("MI of independent halves is near 0") {
    val rnd = new scala.util.Random(3)
    val x = some(Array.fill(2000)(rnd.nextGaussian()): _*)
    val y = some(Array.fill(2000)(rnd.nextGaussian()): _*)
    assert(ReferenceStats.normalizedMutualInformation(x, y) < 0.04)
  }

  test("MI of identical variable is large") {
    // 200 distinct values fill the 8 equi-rank bins evenly: MI = ln 8.
    val x = some((1 to 200).map(_.toDouble): _*)
    assert(ReferenceStats.normalizedMutualInformation(x, x) > 0.99)
  }

  test("MI nonnegative") {
    checkProp(Prop.forAll(Gen.listOfN(30, Gen.choose(-5.0, 5.0)), Gen.listOfN(30, Gen.choose(-5.0, 5.0))) { (a, b) =>
      ReferenceStats.normalizedMutualInformation(some(a: _*), some(b: _*)) >= 0.0
    })
  }

  test("normalized MI within [0,1]") {
    val x = some((1 to 100).map(_.toDouble): _*)
    val nmi = ReferenceStats.normalizedMutualInformation(x, x)
    assert(nmi >= 0.0 && nmi <= 1.0)
  }

  test("MI with fewer than 4 pairs is 0") {
    assert(ReferenceStats.normalizedMutualInformation(some(1, 2, 3, 4), Array(Some(1.0), Some(2.0), Some(3.0), None)) == 0.0)
  }

  test("normalized MI is the equi-rank histogram MI over ln(bins), ties sharing a bin") {
    val x = Array(1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 6.0, 6.0, 6.0)
    val y = Array(0.5, 0.2, 0.5, 0.9, 0.1, 0.7, 0.7, 0.3, 0.3, 0.8, 0.4, 0.6)
    val bins = 4
    val bx = ReferenceStats.rankBins(x, bins); val by = ReferenceStats.rankBins(y, bins)
    val hist = x.indices.groupBy(i => (bx(i), by(i))).toSeq.map { case ((i, j), rows) => (i, j, rows.length.toLong) }
    val expected = Stats.miFromJointCounts(hist) / math.log(bins.toDouble)
    assert(expected > 0.0)
    assert(ReferenceStats.normalizedMutualInformation(some(x: _*), some(y: _*), bins) == expected)
  }

  test("miFromJointCounts matches direct MI for a simple histogram") {
    // Perfectly dependent 2x2: (0,0) and (1,1) only → MI = log 2.
    val mi = Stats.miFromJointCounts(Seq((0, 0, 50L), (1, 1, 50L)))
    assert(math.abs(mi - math.log(2)) < 1e-9)
  }

  test("miFromJointCounts of independent uniform histogram is 0") {
    val cells = for (i <- 0 until 2; j <- 0 until 2) yield (i, j, 25L)
    assert(Stats.miFromJointCounts(cells) < 1e-12)
  }

  test("rankBins assigns equal-frequency bins") {
    val bins = ReferenceStats.rankBins(Array(10.0, 20.0, 30.0, 40.0), 2)
    assert(bins.toSeq == Seq(0, 0, 1, 1))
  }

  test("rankBins handles ties by sharing bins") {
    val bins = ReferenceStats.rankBins(Array(1.0, 1.0, 1.0, 2.0), 2)
    assert(bins.take(3).distinct.length == 1)
  }

  test("rankBins caps at bins-1") {
    val bins = ReferenceStats.rankBins((1 to 50).map(_.toDouble).toArray, 8)
    assert(bins.max == 7 && bins.min == 0)
  }

  test("f1 perfect prediction is 1") {
    assert(Stats.f1(Array(1, 0, 1, 0), Array(1, 0, 1, 0)) == 1.0)
  }

  test("f1 all-wrong prediction is 0") {
    assert(Stats.f1(Array(0, 1), Array(1, 0)) == 0.0)
  }

  test("f1 half precision") {
    // predictions: tp=1, fp=1, fn=0 → precision .5, recall 1, F1 = 2/3.
    val f1 = Stats.f1(Array(1, 1, 0), Array(1, 0, 0))
    assert(math.abs(f1 - 2.0 / 3.0) < 1e-12)
  }

  test("accuracy counts matches") {
    assert(ReferenceStats.accuracy(Array(1, 0, 1, 1), Array(1, 0, 0, 1)) == 0.75)
  }

  test("mae of shifted predictions") {
    assert(math.abs(Stats.mae(Array(1.0, 2.0), Array(0.0, 1.0)) - 1.0) < 1e-12)
  }

  test("clamp01 clamps") {
    assert(Stats.clamp01(-0.5) == 0.0 && Stats.clamp01(1.5) == 1.0 && Stats.clamp01(0.3) == 0.3)
  }

  private def bigDecimalSum(xs: Array[Double]): Double =
    xs.foldLeft(java.math.BigDecimal.ZERO)((s, x) => s.add(new java.math.BigDecimal(x))).doubleValue

  test("exactSum is the correctly rounded sum, in every order") {
    val term: Gen[Double] = Gen.frequency(
      3 -> Gen.zip(Gen.choose(-1.0, 1.0), Gen.choose(-30, 30)).map { case (m, e) => m * math.pow(10.0, e) },
      1 -> Gen.choose(-3, 3).map(_.toDouble),
      1 -> Gen.oneOf(0.0, -0.0, Double.MinPositiveValue, -Double.MinPositiveValue, 1e300, -1e300),
    )
    // A term, its negation and its neighbours' rounding halves, so the sum
    // cancels and lands on and around ties.
    val terms: Gen[Array[Double]] = Gen.listOf(term).flatMap { xs =>
      Gen.someOf(xs).map(negated => (xs ++ negated.map(-_) ++ xs.take(2).map(x => math.ulp(x) / 2)).toArray)
    }
    checkProp(Prop.forAll(terms, Gen.long) { (xs, seed) =>
      val want = java.lang.Double.doubleToRawLongBits(bigDecimalSum(xs))
      val shuffled = new scala.util.Random(seed).shuffle(xs.toSeq).toArray
      java.lang.Double.doubleToRawLongBits(Stats.exactSum(xs)) == want &&
        java.lang.Double.doubleToRawLongBits(Stats.exactSum(shuffled)) == want
    }, tries = 2000)
    assert(Stats.exactSum(Array(1e-16, 1.0, 1e16)) == 10000000000000002.0)
    assert(Stats.exactSum(Array.fill(10)(0.1)) == 1.0)
    assert(Stats.exactSum(Array(1e100, 1.0, -1e100, 1e-100, 1e50, -1.0, -1e50)) == 1e-100)
    assert(Stats.exactSum(Array.empty) == 0.0)
  }

  test("exactSum is NaN for terms that are not finite or could overflow") {
    assert(Stats.exactSum(Array(1.0, Double.NaN)).isNaN)
    assert(Stats.exactSum(Array(Double.PositiveInfinity, 1.0)).isNaN)
    assert(Stats.exactSum(Array(Double.MaxValue, -Double.MaxValue)).isNaN)
  }
}
