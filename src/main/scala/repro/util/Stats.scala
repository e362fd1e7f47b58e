package repro.util

/** Driver-side statistics shared by profiles, tasks, and quality scoring.
  *
  * All estimators here are deterministic pure functions. The profiler's
  * corr and equi-rank MI are computed on the driver from its sample rows
  * (MI through [[miFromJointCounts]]); the test suites check them against
  * [[pearson]], DuckDB's `corr` and an in-memory equi-rank MI kept in test
  * scope.
  */
object Stats {

  /** Arithmetic mean; 0.0 on empty input. */
  def mean(xs: Array[Double]): Double =
    if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** Population standard deviation; 0.0 on empty input. */
  def std(xs: Array[Double]): Double = {
    if (xs.isEmpty) return 0.0
    val m = mean(xs)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / xs.length)
  }

  /** Pearson correlation of the pairwise-complete entries of `xs` / `ys`.
    * Returns 0.0 when either side is (near-)constant or <3 pairs exist.
    */
  def pearson(xs: NumericColumn, ys: NumericColumn): Double = {
    val (x, y) = completePairs(xs, ys)
    pearsonComplete(x, y)
  }

  /** [[pearson]] over already-parsed entries, `None` where missing. */
  def pearson(xs: Array[Option[Double]], ys: Array[Option[Double]]): Double =
    pearson(NumericColumn.fromOptions(xs), NumericColumn.fromOptions(ys))

  /** The entries of `xs` / `ys` where both are defined, in index order. */
  private def completePairs(xs: NumericColumn, ys: NumericColumn): (Array[Double], Array[Double]) = {
    require(xs.length == ys.length, s"length mismatch ${xs.length} vs ${ys.length}")
    var n = 0
    var i = 0
    while (i < xs.length) { if (xs.defined(i) && ys.defined(i)) n += 1; i += 1 }
    val x = new Array[Double](n); val y = new Array[Double](n)
    var j = 0
    i = 0
    while (i < xs.length) {
      if (xs.defined(i) && ys.defined(i)) { x(j) = xs.values(i); y(j) = ys.values(i); j += 1 }
      i += 1
    }
    (x, y)
  }

  /** Pearson correlation over fully-observed vectors. */
  def pearsonComplete(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length, s"length mismatch ${x.length} vs ${y.length}")
    val n = x.length
    if (n < 3) return 0.0
    val mx = mean(x); val my = mean(y)
    var sxy = 0.0; var sxx = 0.0; var syy = 0.0
    var i = 0
    while (i < n) {
      val dx = x(i) - mx; val dy = y(i) - my
      sxy += dx * dy; sxx += dx * dx; syy += dy * dy
      i += 1
    }
    if (sxx < 1e-12 || syy < 1e-12) 0.0 else sxy / math.sqrt(sxx * syy)
  }

  /** Two-sided p-value of Pearson r under H0: rho=0, via the Fisher
    * z-transform (z = atanh(r) * sqrt(n-3) is approximately standard
    * normal). This is the significance test the causal tasks use
    * (paper: "fraction of correctly identified attributes, p < 0.05").
    */
  def fisherPValue(r: Double, n: Int): Double = {
    if (n <= 3) return 1.0
    val rc = math.max(-0.999999, math.min(0.999999, r))
    val z  = 0.5 * math.log((1 + rc) / (1 - rc)) * math.sqrt(n - 3.0)
    2.0 * (1.0 - stdNormalCdf(math.abs(z)))
  }

  /** Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf approximation
    * (|err| < 1.5e-7 — far below any p-value threshold used here).
    */
  def stdNormalCdf(x: Double): Double = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

  def erf(x: Double): Double = {
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(x))
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592) * t * math.exp(-x * x)
    if (x >= 0) y else -y
  }

  /** The sum of `xs` correctly rounded, so it does not depend on their
    * order: the terms are accumulated exactly as a non-overlapping expansion
    * of error-free two-sums (Shewchuk, "Adaptive precision floating-point
    * arithmetic", DCG 1997; the algorithm of Python's `math.fsum`) and the
    * expansion is rounded once, half to even. NaN when a term is not finite
    * or the terms are so large that a partial sum could overflow.
    */
  def exactSum(xs: Array[Double]): Double = {
    val bound = xs.foldLeft(0.0)((m, x) => math.max(m, math.abs(x)))
    if (!(bound * xs.length <= Double.MaxValue / 2)) return Double.NaN
    // Non-zero, non-overlapping partials in increasing magnitude whose
    // exact sum is the exact sum of the terms so far.
    val partials = new Array[Double](xs.length)
    var n = 0
    xs.foreach { term =>
      var x = term
      var kept = 0
      var j = 0
      while (j < n) {
        var y = partials(j)
        if (math.abs(x) < math.abs(y)) { val t = x; x = y; y = t }
        val hi = x + y
        val lo = y - (hi - x)
        if (lo != 0.0) { partials(kept) = lo; kept += 1 }
        x = hi
        j += 1
      }
      n = kept
      if (x != 0.0) { partials(n) = x; n += 1 }
    }
    // Add the partials from the top until the sum turns inexact; `lo` is
    // then what was rounded off.
    if (n == 0) return 0.0
    n -= 1
    var hi = partials(n)
    var lo = 0.0
    while (n > 0 && lo == 0.0) {
      val x = hi
      val y = partials(n - 1)
      n -= 1
      hi = x + y
      lo = y - (hi - x)
    }
    // A rounded-off half is exact only if no lower partial lies on its
    // side; one that does tips the rounding away from even.
    if (n > 0 && ((lo < 0.0 && partials(n - 1) < 0.0) || (lo > 0.0 && partials(n - 1) > 0.0))) {
      val y = lo * 2.0
      val x = hi + y
      if (y == x - hi) hi = x
    }
    hi
  }

  /** MI (nats) from a sparse joint histogram of (binX, binY, count): the
    * MI profile's last step. Its sum follows the order of `cells`; the
    * profiler passes them in (binX, binY) order.
    */
  def miFromJointCounts(cells: Seq[(Int, Int, Long)]): Double = {
    val n = cells.map(_._3).sum.toDouble
    if (n < 4) return 0.0
    val px = cells.groupBy(_._1).view.mapValues(_.map(_._3).sum / n).toMap
    val py = cells.groupBy(_._2).view.mapValues(_.map(_._3).sum / n).toMap
    var mi = 0.0
    cells.foreach { case (i, j, c) =>
      val pij = c / n
      if (pij > 0) mi += pij * math.log(pij / (px(i) * py(j)))
    }
    math.max(0.0, mi)
  }

  /** Binary F1 for the positive label `1.0`; 0.0 when precision+recall = 0. */
  def f1(predicted: Array[Double], actual: Array[Double]): Double = {
    require(predicted.length == actual.length, "length mismatch")
    var tp = 0; var fp = 0; var fn = 0
    predicted.indices.foreach { i =>
      val p = predicted(i) >= 0.5; val a = actual(i) >= 0.5
      if (p && a) tp += 1 else if (p && !a) fp += 1 else if (!p && a) fn += 1
    }
    if (tp == 0) 0.0
    else {
      val prec = tp.toDouble / (tp + fp); val rec = tp.toDouble / (tp + fn)
      2 * prec * rec / (prec + rec)
    }
  }

  /** Mean absolute error. */
  def mae(predicted: Array[Double], actual: Array[Double]): Double = {
    require(predicted.length == actual.length, "length mismatch")
    if (predicted.isEmpty) 0.0
    else predicted.indices.map(i => math.abs(predicted(i) - actual(i))).sum / predicted.length
  }

  /** Clamp into [0,1] — utility scores are normalised per Definition 5. */
  def clamp01(v: Double): Double = math.max(0.0, math.min(1.0, v))
}
