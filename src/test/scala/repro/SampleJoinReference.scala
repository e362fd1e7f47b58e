package repro

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, expr, min}
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}

import repro.core.{AugmentEngine, Candidate}
import repro.lake.Lake
import repro.profile.Profiler

/** Spark reference of the profiler's sample rows: the profiling sample
  * joined on its key with a tall view of every lake cell, deduplicated to
  * one `min(value)` per (table, valueCol, key, target) and parsed with
  * Spark's `try_cast`, as `Profiler` built them before it read them from
  * the Γ columns. The rows go through the profiler's own aggregations, so
  * the profiles agree bit for bit only if both paths hand Spark the same
  * rows in the same partitions and order.
  */
object SampleJoinReference {

  /** Tall (table, valueCol, key, value) view pairing each non-key column
    * with the table's first key column.
    */
  def valueCellsDf(spark: SparkSession, lake: Lake): DataFrame = {
    val schema = StructType(Seq(
      StructField("table", StringType, nullable = false),
      StructField("valueCol", StringType, nullable = false),
      StructField("key", StringType, nullable = true),
      StructField("value", StringType, nullable = true),
    ))
    val rows = for {
      t <- lake.tables
      keyCol = t.meta.keyCols.headOption.getOrElse(t.columnNames.head)
      keys = t.column(keyCol)
      (cn, vals) <- t.columns if !t.meta.keyCols.contains(cn)
      i <- 0 until t.nRows
    } yield Row(t.meta.name, cn, keys(i).orNull, vals(i).orNull)
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
  }

  /** Whether the tall view reaches `c`: a 1-hop candidate joining through
    * its table's first key column.
    */
  def firstKey(lake: Lake, c: Candidate): Boolean =
    c.hops == 1 && lake.table(c.edges.head.rightTable).meta.keyCols.headOption.contains(c.edges.head.rightKeyCol)

  /** Candidate id → (|corr|, normalised MI, overlap) of every [[firstKey]]
    * candidate in `cands`, unclamped.
    */
  def profiles(spark: SparkSession, engine: AugmentEngine, cands: Seq[Candidate],
               targetCol: String): Map[Int, (Double, Double, Double)] = {
    val input = engine.input
    val idx = Profiler.sampleIndices(input.nRows, Profiler.SampleSize, Profiler.SampleSeed)
    val target = input.numeric(targetCol)
    cands.filter(firstKey(engine.lake, _)).groupBy(_.edges.head.leftCol).toSeq.flatMap { case (leftCol, cs) =>
      val keys = input.column(leftCol)
      val sampleSchema = StructType(Seq(
        StructField("skey", StringType, nullable = true),
        StructField("target", DoubleType, nullable = true),
      ))
      val sampleRows = idx.toSeq.map(i => Row(keys(i).orNull, target(i).map(Double.box).orNull))
      val sampleDf = spark.createDataFrame(spark.sparkContext.parallelize(sampleRows, 2), sampleSchema)
      val cells = valueCellsDf(spark, engine.lake).where(col("table").isin(cs.map(_.table).distinct: _*))
      val dedup = sampleDf
        .join(cells, sampleDf("skey") === cells("key"))
        .groupBy(col("table"), col("valueCol"), col("skey"), col("target"))
        .agg(min(col("value")).as("vs"))
        .where(col("vs").isNotNull && col("target").isNotNull)
        .select(col("table"), col("valueCol"), col("skey"), col("target"), expr("try_cast(vs AS DOUBLE)").as("v"))
      val byColumn = Profiler.sampleProfiles(dedup, idx.length)
      cs.map(c => c.id -> byColumn.getOrElse((c.table, c.valueCol), (0.0, 0.0, 0.0)))
    }.toMap
  }
}
