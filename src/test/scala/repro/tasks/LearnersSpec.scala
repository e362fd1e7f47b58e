package repro.tasks

import org.scalatest.funsuite.AnyFunSuite

import repro.util.{NumericColumn, ReferenceStats, Stats}

class LearnersSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(42)

  test("designMatrix imputes missing values with the column mean") {
    val m = Learners.designMatrix(Vector(NumericColumn.fromOptions(Array(Some(1.0), None, Some(3.0)))))
    assert(m.map(_(0)).toSeq == Seq(1.0, 2.0, 3.0))
  }

  test("designMatrix of an all-missing column is zeros") {
    val m = Learners.designMatrix(Vector(NumericColumn.fromOptions(Array[Option[Double]](None, None))))
    assert(m.map(_(0)).toSeq == Seq(0.0, 0.0))
  }

  test("split is deterministic and disjoint") {
    val (tr1, va1) = Learners.split(100, 0.3, 7)
    val (tr2, va2) = Learners.split(100, 0.3, 7)
    assert(tr1.toSeq == tr2.toSeq && va1.toSeq == va2.toSeq)
    assert((tr1.toSet & va1.toSet).isEmpty)
    assert(tr1.length + va1.length == 100)
    assert(va1.length == 30)
  }

  test("split differs across seeds") {
    val (_, va1) = Learners.split(100, 0.3, 7)
    val (_, va2) = Learners.split(100, 0.3, 8)
    assert(va1.toSeq != va2.toSeq)
  }

  test("forest fits a separable threshold function") {
    val x = Array.fill(300)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => if (r(0) > 0) 1.0 else 0.0)
    val f = Learners.trainForest(x, y, seed = 11)
    val pred = x.map(f.predictRow)
    assert(ReferenceStats.accuracy(pred, y) > 0.9)
  }

  test("forest prediction is deterministic for a fixed seed") {
    val x = Array.fill(100)(Array(rnd.nextGaussian()))
    val y = x.map(r => if (r(0) > 0.2) 1.0 else 0.0)
    val f1 = Learners.trainForest(x, y, seed = 5)
    val f2 = Learners.trainForest(x, y, seed = 5)
    assert(x.map(f1.predictRow).toSeq == x.map(f2.predictRow).toSeq)
  }

  test("forest on pure noise stays near the base rate") {
    val x = Array.fill(200)(Array(rnd.nextGaussian()))
    val y = Array.fill(200)(if (rnd.nextBoolean()) 1.0 else 0.0)
    val f = Learners.trainForest(x, y, seed = 11)
    val mean = Stats.mean(x.map(f.predictRow))
    assert(mean > 0.2 && mean < 0.8)
  }

  test("forest regression tracks a smooth function") {
    val x = Array.tabulate(200)(i => Array(i / 200.0))
    val y = x.map(r => r(0))
    val f = Learners.trainForest(x, y, seed = 11)
    val mae = Stats.mae(x.map(f.predictRow), y)
    assert(mae < 0.12, s"mae $mae")
  }

  test("forest requires non-empty training data") {
    intercept[IllegalArgumentException](Learners.trainForest(Array.empty, Array.empty, seed = 11))
  }

  test("constant labels produce constant predictions") {
    val x = Array.fill(50)(Array(rnd.nextGaussian()))
    val y = Array.fill(50)(1.0)
    val f = Learners.trainForest(x, y, seed = 11)
    assert(x.map(f.predictRow).forall(_ == 1.0))
  }
}
