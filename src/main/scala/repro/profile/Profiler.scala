package repro.profile

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import scala.collection.mutable
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
    * Corr, MI and overlap come from one estimator, whatever the candidate's
    * join path: its sample rows, read from the engine's Γ columns (which
    * this materialises ahead of `prefetch`) and parsed by
    * [[NumericColumn.parse]], go to one `corr`/count aggregation
    * and one equi-rank binned histogram for MI. Candidates are batched by
    * input key column and occurrence number (how many earlier candidates
    * share that key column, table and value column), so no batch sums two
    * candidates under one (table, valueCol) group and each candidate's
    * profiles depend only on its Γ column.
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

    val seen = mutable.HashMap.empty[(String, String, String), Int]
    val batches = cands.groupBy { c =>
      val column = (c.edges.head.leftCol, c.table, c.valueCol)
      val occurrence = seen.getOrElse(column, 0)
      seen(column) = occurrence + 1
      (column._1, occurrence)
    }
    val fromSample: Map[Int, (Double, Double, Double)] = batches.flatMap { case ((leftCol, _), cs) =>
      val byColumn = withSampleRows(spark, engine, cs, leftCol, target, idx)(sampleProfiles(_, idx.length))
      cs.map(c => c.id -> byColumn.getOrElse((c.table, c.valueCol), (0.0, 0.0, 0.0)))
    }

    val inputEmbedding = TokenEmbedding.embed(input.meta.vocabulary ++ input.columnNames)
    val inputAttrTokens = attributeTokens(input.columnNames.toSet)
    val byId = cands.map { c =>
      val (corrV, miV, overlapV) = fromSample(c.id)
      val t = engine.lake.table(c.table)
      val embedV = TokenEmbedding.similarity(inputEmbedding, TokenEmbedding.embed(t.meta.vocabulary ++ t.columnNames))
      val metaV = tokenSimilarity(inputAttrTokens, input.meta.source, attributeTokens(t.columnNames.toSet), t.meta.source)
      c.id -> Array(
        Stats.clamp01(corrV), Stats.clamp01(miV), Stats.clamp01(embedV),
        Stats.clamp01(metaV), Stats.clamp01(overlapV),
      )
    }.toMap

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

  private val SampleRowSchema = StructType(Seq(
    StructField("table", StringType, nullable = false),
    StructField("valueCol", StringType, nullable = false),
    StructField("skey", StringType, nullable = false),
    StructField("target", DoubleType, nullable = false),
    StructField("v", DoubleType, nullable = true),
  ))

  /** The sample rows `(table, valueCol, skey, target, v)` of the
    * candidates `cs` joining through the input's `leftCol`, no two of which
    * share a (table, valueCol): per candidate, one row for each distinct
    * (key, target) of the sampled input rows whose key, target and Γ value
    * are all present, with `v` the Γ value parsed by
    * [[NumericColumn.parse]] (null where it is not a number). A target of
    * −0.0 becomes 0.0, as Spark normalises a grouping key. Only the sampled
    * cells are parsed: a numeric view of the whole column would stay in the
    * engine's memo for candidates the search never queries.
    *
    * The rows are hash-partitioned on `skey` into
    * `spark.sql.shuffle.partitions` partitions and sorted within each by
    * (table, valueCol, skey, target): the partitions and order that
    * joining the sample with the lake's cells on the key and taking each
    * group's `min(value)` gave them, so [[sampleProfiles]] sums them in the
    * same order as that join did and its profiles are bit-identical.
    *
    * `use` gets them as a DataFrame; the broadcast that carries them to the
    * tasks is destroyed when it returns.
    */
  private def withSampleRows[A](
      spark: SparkSession,
      engine: AugmentEngine,
      cs: Seq[Candidate],
      leftCol: String,
      target: Array[Option[Double]],
      idx: Array[Int],
  )(use: DataFrame => A): A = {
    val keys = engine.input.column(leftCol)
    val rows = cs.flatMap { c =>
      val gamma = engine.column(c)
      idx.iterator
        .flatMap(i => for (k <- keys(i); t <- target(i); g <- gamma(i)) yield (k, if (t == 0.0) 0.0 else t, g))
        .distinctBy { case (k, t, _) => (k, java.lang.Double.doubleToLongBits(t)) }
        .map { case (k, t, g) => Row(c.table, c.valueCol, k, t, NumericColumn.parse(Some(g)).map(Double.box).orNull) }
    }
    // The rows reach the tasks in one broadcast rather than in task
    // payloads, so a few map tasks feed the shuffle (each writes one block
    // per partition) without any of them carrying a large payload.
    val sc = spark.sparkContext
    val shared = sc.broadcast(rows.toArray)
    val slices = sc.defaultParallelism
    val scattered = sc.parallelize(0 until slices, slices)
      .flatMap(s => Iterator.range(s, shared.value.length, slices).map(shared.value(_)))
    val sorted = spark.createDataFrame(scattered, SampleRowSchema)
      .repartition(spark.conf.get("spark.sql.shuffle.partitions").toInt, col("skey"))
      .sortWithinPartitions("table", "valueCol", "skey", "target")
    try use(sorted) finally shared.destroy()
  }

  /** (table, valueCol) → (|corr|, normalised MI, overlap fraction) from
    * sample rows `(table, valueCol, skey, target, v)` of `sampleSize`
    * sampled input rows, in two Spark jobs whose float sums follow the
    * rows' partitions and order.
    */
  private[repro] def sampleProfiles(rows: DataFrame, sampleSize: Int): Map[(String, String), (Double, Double, Double)] = {
    // Overlap counts every row, as each carries a Γ value; corr/MI use only
    // the rows whose value is a number (entity columns etc. stay joinable
    // but contribute no correlation signal).
    val dedup = rows.cache()

    // Correlation from sufficient statistics (computed distributedly, the
    // final ratio guarded on the driver) — Spark's `corr` divides by the
    // variance and throws under ANSI mode when a small matched group is
    // constant.
    val statsRows = dedup
      .groupBy("table", "valueCol")
      .agg(
        countDistinct(col("skey")).as("matchedKeys"),
        count(col("v")).as("n"),
        sum(col("v")).as("sx"),
        sum(col("v") * col("v")).as("sxx"),
        sum(when(col("v").isNotNull, col("target"))).as("sy"),
        sum(when(col("v").isNotNull, col("target") * col("target"))).as("syy"),
        sum(col("v") * col("target")).as("sxy"),
      )
      .collect()

    val numeric = dedup.where(col("v").isNotNull)
    val wv = Window.partitionBy("table", "valueCol").orderBy("v")
    val wt = Window.partitionBy("table", "valueCol").orderBy("target")
    val histRows = numeric
      .withColumn("bx", least(lit(Bins - 1), floor(percent_rank().over(wv) * Bins)).cast("int"))
      .withColumn("by", least(lit(Bins - 1), floor(percent_rank().over(wt) * Bins)).cast("int"))
      .groupBy("table", "valueCol", "bx", "by")
      .agg(count(lit(1)).as("c"))
      .collect()
    dedup.unpersist()

    val hists = histRows
      .groupBy(r => (r.getString(0), r.getString(1)))
      .view
      .mapValues(_.map(r => (r.getInt(2), r.getInt(3), r.getLong(4))).toSeq)
      .toMap

    statsRows.map { r =>
      val k = (r.getString(0), r.getString(1))
      val matchedKeys = r.getLong(2)
      val n = r.getLong(3)
      val corrV =
        if (n < 3 || r.isNullAt(4)) 0.0
        else {
          val nn = n.toDouble
          val sx = r.getDouble(4); val sxx = r.getDouble(5)
          val sy = r.getDouble(6); val syy = r.getDouble(7)
          val sxy = r.getDouble(8)
          val varX = nn * sxx - sx * sx
          val varY = nn * syy - sy * sy
          if (varX < 1e-12 || varY < 1e-12) 0.0
          else math.abs((nn * sxy - sx * sy) / math.sqrt(varX * varY))
        }
      val miV =
        if (n < 4) 0.0
        else hists.get(k).map(h => Stats.miFromJointCounts(h, Bins) / math.log(Bins.toDouble)).getOrElse(0.0)
      k -> ((corrV, miV, matchedKeys.toDouble / sampleSize))
    }.toMap
  }
}
