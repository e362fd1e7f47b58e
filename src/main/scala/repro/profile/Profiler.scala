package repro.profile

import org.apache.spark.sql.SparkSession
import scala.collection.parallel.CollectionConverters._
import scala.util.hashing.MurmurHash3

import repro.core.{AugmentEngine, Candidate}
import repro.util.{NumericColumn, Stats}

/** The vector of data profiles of every candidate augmentation (§II-C).
  *
  * Five profiles, all normalised to [0,1]:
  *   - `corr`    |Pearson correlation| of the augmented column with the
  *               task's target attribute, on a small sample
  *   - `mi`      normalised mutual information with the target (equi-rank
  *               binned), on the same sample
  *   - `embed`   semantic similarity of the candidate table to `D_in`
  *               (hashed-token embedding cosine; BERT substitute)
  *   - `meta`    metadata similarity: attribute-name Jaccard and source
  *               match (the paper's syntactic Ver/S4-style profile)
  *   - `overlap` distinct keys of the sampled `D_in` rows that have a
  *               target and a join match, over the sample size — the
  *               cardinality-after-augmentation profile
  */
final case class Profiles(names: Vector[String], byId: Map[Int, Array[Double]]) {
  def dim: Int = names.length
  def of(c: Candidate): Array[Double] = byId(c.id)
  def profileIndex(name: String): Int = names.indexOf(name)
}

object Profiler {

  val ProfileNames: Vector[String] = Vector("corr", "mi", "embed", "meta", "overlap")

  private[repro] val SampleSize = 100
  private[repro] val SampleSeed = 17L
  private val Bins = 8 // equi-rank MI bins per axis

  /** Deterministic sample of `n` row indices of the input (pseudo-shuffle
    * by murmur hash, as the paper profiles "a random sample of 100
    * records").
    */
  def sampleIndices(nRows: Int, n: Int, seed: Long): Array[Int] =
    (0 until nRows).sortBy(i => MurmurHash3.stringHash(s"$seed:$i")).take(n).toArray.sorted

  /** Compute the profile vector of every candidate.
    *
    * Corr, MI and overlap come from one estimator on the driver, whatever
    * the candidate's join path: [[sampleProfiles]] over its [[sampleRows]],
    * read from the engine's Γ columns (which this materialises ahead of
    * `prefetch`). The estimator depends only on the set of sample rows, so
    * a candidate's profiles depend only on its Γ column.
    *
    * Candidates are profiled in parallel, one per task on the parallel
    * collections' default pool. A candidate's work (its Γ column, sample
    * rows, estimator, embedding and metadata similarity) reads only its own
    * inputs, and the results are kept in candidate order, so the profiles
    * do not depend on the schedule.
    *
    * @param spark unused, as profiling needs no Spark; kept in the
    *              signature that `Runner` and the `metambench` harness call
    */
  def profileAll(
      spark: SparkSession,
      engine: AugmentEngine,
      cands: Seq[Candidate],
      targetCol: String,
  ): Profiles = {
    val input = engine.input
    val idx = sampleIndices(input.nRows, SampleSize, SampleSeed)
    val target = input.numeric(targetCol)
    val inputEmbedding = TokenEmbedding.embed(input.meta.vocabulary ++ input.columnNames)
    val inputAttrTokens = attributeTokens(input.columnNames.toSet)
    val byId = cands.par.map { c =>
      val (corrV, miV, overlapV) = sampleProfiles(sampleRows(engine, c, target, idx), idx.length)
      val t = engine.lake.table(c.table)
      val embedV = TokenEmbedding.similarity(inputEmbedding, TokenEmbedding.embed(t.meta.vocabulary ++ t.columnNames))
      val metaV = tokenSimilarity(inputAttrTokens, input.meta.source, attributeTokens(t.columnNames.toSet), t.meta.source)
      c.id -> Array(
        Stats.clamp01(corrV), Stats.clamp01(miV), Stats.clamp01(embedV),
        Stats.clamp01(metaV), Stats.clamp01(overlapV),
      )
    }.seq.toMap

    Profiles(ProfileNames, byId)
  }

  /** Attribute-name Jaccard blended with a source-equality indicator. */
  def metadataSimilarity(aAttrs: Set[String], aSource: String, bAttrs: Set[String], bSource: String): Double =
    tokenSimilarity(attributeTokens(aAttrs), aSource, attributeTokens(bAttrs), bSource)

  /** Lower-cased tokens of attribute names split at underscores and spaces. */
  private def attributeTokens(attrs: Set[String]): Set[String] = attrs.flatMap(_.toLowerCase.split("[_\\s]+"))

  /** [[metadataSimilarity]] of two attribute-token sets. */
  private def tokenSimilarity(tokensA: Set[String], aSource: String, tokensB: Set[String], bSource: String): Double = {
    val jac =
      if (tokensA.isEmpty || tokensB.isEmpty) 0.0
      else tokensA.intersect(tokensB).size.toDouble / tokensA.union(tokensB).size
    0.5 * jac + 0.5 * (if (aSource == bSource) 1.0 else 0.0)
  }

  /** One sample row of a candidate: a sampled input row's join key and
    * target, and its Γ value parsed by [[NumericColumn.parse]] (`None`
    * where it is not a number).
    */
  private[repro] final case class SampleRow(key: String, target: Double, value: Option[Double])

  /** The sample rows of `c`: one for each distinct (key, target) of the
    * sampled input rows `idx` whose key, target and Γ value are all present
    * (targets compare as numbers, so −0.0 equals 0.0; the two add and rank
    * alike). Only the sampled cells are parsed: a
    * numeric view of the whole column would stay in the engine's memo for
    * candidates the search never queries.
    */
  private[repro] def sampleRows(engine: AugmentEngine, c: Candidate, target: Array[Option[Double]],
                                idx: Array[Int]): Seq[SampleRow] = {
    val keys = engine.input.column(c.edges.head.leftCol)
    val gamma = engine.column(c)
    idx.toSeq
      .flatMap(i => for (k <- keys(i); t <- target(i); g <- gamma(i)) yield (k, t, g))
      .distinctBy { case (k, t, _) => (k, t) }
      .map { case (k, t, g) => SampleRow(k, t, NumericColumn.parse(Some(g))) }
  }

  /** (|corr|, normalised MI, overlap fraction) from a candidate's sample
    * rows of `sampleSize` sampled input rows. The result depends only on
    * the set of rows, not on their order. Overlap counts the distinct keys
    * of every row, as each carries a Γ value; corr and MI use only the rows
    * whose value is a number (entity columns etc. stay joinable but
    * contribute no correlation signal).
    */
  private[repro] def sampleProfiles(rows: Seq[SampleRow], sampleSize: Int): (Double, Double, Double) = {
    val pairs = rows.collect { case SampleRow(_, t, Some(v)) => (v, t) }.toArray
    (corr(pairs), mutualInformation(pairs), rows.map(_.key).distinct.size.toDouble / sampleSize)
  }

  /** |Pearson r| of (v, t) pairs from five sufficient statistics (Σv, Σv²,
    * Σt, Σt², Σvt), each per-row term rounded once and each sum correctly
    * rounded ([[Stats.exactSum]]). 0.0 for fewer than 3 pairs, a
    * (near-)constant side or a statistic that is not finite.
    */
  private def corr(pairs: Array[(Double, Double)]): Double = {
    if (pairs.length < 3) return 0.0
    val n = pairs.length.toDouble
    def sum(term: ((Double, Double)) => Double): Double = Stats.exactSum(pairs.map(term))
    val sx = sum(_._1); val sxx = sum(p => p._1 * p._1)
    val sy = sum(_._2); val syy = sum(p => p._2 * p._2)
    val sxy = sum(p => p._1 * p._2)
    val varX = n * sxx - sx * sx
    val varY = n * syy - sy * sy
    val cov = n * sxy - sx * sy
    if (!(java.lang.Double.isFinite(varX) && java.lang.Double.isFinite(varY) && java.lang.Double.isFinite(cov)) ||
        varX < 1e-12 || varY < 1e-12) 0.0
    else math.abs(cov / math.sqrt(varX * varY))
  }

  /** Normalised MI of (v, t) pairs: each side equi-rank binned
    * ([[rankBins]]), the joint histogram's cells in (bx, by) order through
    * [[Stats.miFromJointCounts]], over ln([[Bins]]). 0.0 for fewer than 4
    * pairs.
    */
  private def mutualInformation(pairs: Array[(Double, Double)]): Double = {
    if (pairs.length < 4) return 0.0
    val bx = rankBins(pairs.map(_._1)); val by = rankBins(pairs.map(_._2))
    val counts = Array.ofDim[Long](Bins, Bins)
    pairs.indices.foreach(i => counts(bx(i))(by(i)) += 1)
    val cells = for (i <- 0 until Bins; j <- 0 until Bins if counts(i)(j) > 0) yield (i, j, counts(i)(j))
    Stats.miFromJointCounts(cells) / math.log(Bins.toDouble)
  }

  /** Equi-rank bin of each of `xs` (at least two values):
    * floor(percent_rank · [[Bins]]), capped at `Bins − 1`, where
    * percent_rank is the rank of the value's first peer over (n − 1) and
    * equal values are peers.
    */
  private def rankBins(xs: Array[Double]): Array[Int] = {
    val order = xs.indices.sortBy(xs)(Ordering.Double.TotalOrdering)
    val bins = new Array[Int](xs.length)
    var first = 0
    order.indices.foreach { r =>
      if (xs(order(r)) != xs(order(first))) first = r
      bins(order(r)) = math.min(Bins - 1, math.floor(first.toDouble / (xs.length - 1) * Bins).toInt)
    }
    bins
  }
}
