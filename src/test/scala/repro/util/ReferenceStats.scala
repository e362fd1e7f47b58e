package repro.util

/** In-memory estimators that only the test suites use: the equi-rank
  * mutual information that the profiler's Spark MI is checked against,
  * and classification accuracy.
  */
object ReferenceStats {

  /** Equi-rank (equal-frequency) bin assignment of the MI profile:
    * bin = floor(percent_rank * bins), capped at bins-1, as the profiler's
    * Spark window expression computes it.
    */
  def rankBins(values: Array[Double], bins: Int): Array[Int] = {
    val n = values.length
    if (n <= 1) return Array.fill(n)(0)
    val sorted = values.zipWithIndex.sortBy(_._1)
    val ranks = new Array[Int](n)
    // percent_rank semantics: rank of first peer / (n-1), peers share rank.
    var i = 0
    while (i < n) {
      var j = i
      while (j + 1 < n && sorted(j + 1)._1 == sorted(i)._1) j += 1
      val pr = i.toDouble / (n - 1)
      val b = math.min(bins - 1, math.floor(pr * bins).toInt)
      var k = i
      while (k <= j) { ranks(sorted(k)._2) = b; k += 1 }
      i = j + 1
    }
    ranks
  }

  /** Normalised MI in [0,1] of the pairwise-complete entries: each side
    * equi-rank binned ([[rankBins]]), then MI / ln(bins) (ln(bins) bounds
    * the binned MI). 0.0 when <4 pairs exist.
    */
  def normalizedMutualInformation(xs: Array[Option[Double]], ys: Array[Option[Double]], bins: Int = 8): Double = {
    require(bins >= 2, "need at least 2 bins")
    require(xs.length == ys.length, s"length mismatch ${xs.length} vs ${ys.length}")
    val complete = xs.indices.filter(i => xs(i).isDefined && ys(i).isDefined)
    if (complete.length < 4) return 0.0
    val bx = rankBins(complete.map(xs(_).get).toArray, bins)
    val by = rankBins(complete.map(ys(_).get).toArray, bins)
    val cells = bx.indices.groupBy(i => (bx(i), by(i))).map { case ((i, j), rows) => (i, j, rows.length.toLong) }
    math.min(1.0, Stats.miFromJointCounts(cells.toSeq, bins) / math.log(bins.toDouble))
  }

  /** Classification accuracy. */
  def accuracy(predicted: Array[Double], actual: Array[Double]): Double = {
    require(predicted.length == actual.length, "length mismatch")
    if (predicted.isEmpty) 0.0
    else predicted.indices.count(i => (predicted(i) >= 0.5) == (actual(i) >= 0.5)).toDouble / predicted.length
  }
}
