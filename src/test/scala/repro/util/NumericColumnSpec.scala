package repro.util

import java.lang.Double.doubleToRawLongBits

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import repro.lake.{LakeTable, LocalTable, TableMeta}

class NumericColumnSpec extends AnyFunSuite with PropSupport {

  private val awkward = Seq("NaN", "Infinity", "-Infinity", "-0.0", "1e400", "-1e400", " 2 ", "", "0x1p3", "1d",
    "1f", "+1", "1.", ".5", "1E-3", "0x10", "1_000", "abc", "nope", "4.9e-324")

  private val cell: Gen[Option[String]] = Gen.frequency(
    2 -> Gen.const(None),
    3 -> Gen.oneOf(awkward).map(Some(_)),
    3 -> Gen.choose(-1e6, 1e6).map(v => Some(v.toString)),
    1 -> Gen.choose(-1000, 1000).map(v => Some(v.toString)),
    1 -> Gen.alphaNumStr.map(Some(_)),
  )

  private def sameBits(a: Option[Double], b: Option[Double]): Boolean = (a, b) match {
    case (Some(x), Some(y)) => doubleToRawLongBits(x) == doubleToRawLongBits(y)
    case (None, None) => true
    case _ => false
  }

  /** What [[NumericColumn.parse]] accepts: `toDoubleOption`'s finite values. */
  private def finiteDouble(cell: Option[String]): Option[Double] = cell.flatMap(_.toDoubleOption).filter(_.isFinite)

  test("the view equals toDoubleOption's finite values cell for cell") {
    val cells: Array[Option[String]] = (awkward.map(Some(_)) :+ None).toArray
    val view = NumericColumn.of(cells)
    assert(view.length == cells.length)
    cells.indices.foreach { i =>
      val expected = finiteDouble(cells(i))
      assert(sameBits(view(i), expected), s"cell ${cells(i)}: ${view(i)} vs $expected")
      assert(view.isDefined(i) == expected.isDefined)
    }
    assert(view(cells.indexOf(Some(" 2 "))).contains(2.0))
    assert(view(cells.indexOf(Some("-0.0"))).map(doubleToRawLongBits).contains(doubleToRawLongBits(-0.0)))
    assert(!view.isDefined(cells.indexOf(Some(""))))
    checkProp(Prop.forAll(Gen.listOf(cell)) { list =>
      val cs = list.toArray
      val v = NumericColumn.of(cs)
      val expected = cs.map(finiteDouble)
      v.length == cs.length &&
        cs.indices.forall(i => sameBits(v(i), expected(i)) && v.isDefined(i) == expected(i).isDefined) &&
        v.count == expected.count(_.isDefined) && v.nonNull == cs.count(_.isDefined) &&
        v.parsedValues.map(doubleToRawLongBits).toSeq == expected.flatten.map(doubleToRawLongBits).toSeq
    }, tries = 200)
  }

  test("parse accepts finite doubles only") {
    Seq("NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e309").foreach { s =>
      assert(s.toDoubleOption.isDefined, s)
      assert(NumericColumn.parse(Some(s)).isEmpty, s)
    }
    assert(NumericColumn.parse(Some("1e200")).contains(1e200))
    assert(NumericColumn.parse(Some("1.7976931348623157e308")).contains(Double.MaxValue))
    assert(NumericColumn.parse(Some("4.9e-324")).contains(Double.MinPositiveValue))
    assert(NumericColumn.parse(Some("1e-400")).contains(0.0))
    val view = NumericColumn.of(Array(Some("NaN"), Some("Infinity"), Some("1e400"), Some("3"), None))
    assert(view.count == 1 && view.nonNull == 4 && view.parsedValues.toSeq == Seq(3.0))
  }

  test("LakeTable and LocalTable parse with the same rule") {
    val cells: Array[Option[String]] = (awkward.map(Some(_)) :+ None).toArray
    val lake = LakeTable(TableMeta("t", "s", Vector.empty, Vector.empty), Vector("x" -> cells)).numeric("x")
    val local = LocalTable(Vector("x" -> cells)).numeric("x")
    assert(cells.indices.forall(i => sameBits(lake(i), local(i))))
  }

  test("a table parses each column once and shares its views with the tables add derives") {
    val lt = LocalTable(Vector("x" -> Array(Some("1"), Some("oops"))))
    val lt2 = lt.add("y", Array(Some("2"), None))
    assert(lt.numeric("x") eq lt.numeric("x"))
    assert(lt2.numeric("x") eq lt.numeric("x"))
    assert(lt2.numeric("y").toSeq == Seq(Some(2.0), None))
  }

  /** Pearson over Option arrays exactly as it was computed before views. */
  private def optionPearson(xs: Array[Option[Double]], ys: Array[Option[Double]]): Double = {
    val pairs = xs.indices.collect { case i if xs(i).isDefined && ys(i).isDefined => (xs(i).get, ys(i).get) }
    val x = pairs.map(_._1).toArray
    val y = pairs.map(_._2).toArray
    val n = x.length
    if (n < 3) return 0.0
    val mx = x.sum / n; val my = y.sum / n
    var sxy = 0.0; var sxx = 0.0; var syy = 0.0
    var i = 0
    while (i < n) {
      val dx = x(i) - mx; val dy = y(i) - my
      sxy += dx * dy; sxx += dx * dx; syy += dy * dy
      i += 1
    }
    if (sxx < 1e-12 || syy < 1e-12) 0.0 else sxy / math.sqrt(sxx * syy)
  }

  private def column(n: Int): Gen[Array[Option[Double]]] = {
    val entry = Gen.frequency(
      3 -> Gen.choose(-100.0, 100.0).map(Some(_)),
      1 -> Gen.choose(-3, 3).map(v => Some(v.toDouble)),
      1 -> Gen.const(None),
    )
    Gen.oneOf(
      Gen.listOfN(n, entry).map(_.toArray),
      Gen.choose(-5.0, 5.0).map(c => Array.tabulate(n)(i => if (i % 4 == 3) None else Some(c))),
    )
  }

  test("pearson over views is bit-equal to the Option formula") {
    val pairs = for {
      n <- Gen.frequency(1 -> Gen.choose(0, 4), 3 -> Gen.choose(5, 60))
      xs <- column(n)
      ys <- column(n)
    } yield (xs, ys)
    checkProp(Prop.forAll(pairs) { case (xs, ys) =>
      val expected = doubleToRawLongBits(optionPearson(xs, ys))
      doubleToRawLongBits(Stats.pearson(NumericColumn.fromOptions(xs), NumericColumn.fromOptions(ys))) == expected &&
        doubleToRawLongBits(Stats.pearson(xs, ys)) == expected
    }, tries = 300)
  }

  test("pearson over parsed string columns is bit-equal to the Option formula on toDoubleOption") {
    val n = 40
    val rnd = new scala.util.Random(11)
    (0 until 50).foreach { _ =>
      val a = Array.fill[Option[String]](n)(if (rnd.nextInt(5) == 0) None else Some((rnd.nextGaussian() * 10).toString))
      val b = Array.fill[Option[String]](n)(Some(if (rnd.nextInt(7) == 0) "n/a" else (rnd.nextGaussian() * 3).toString))
      val expected = optionPearson(a.map(_.flatMap(_.toDoubleOption)), b.map(_.flatMap(_.toDoubleOption)))
      assert(doubleToRawLongBits(Stats.pearson(NumericColumn.of(a), NumericColumn.of(b))) == doubleToRawLongBits(expected))
    }
  }
}
