package repro.lake

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.discovery.JoinDiscovery

/** Table I reproduction: characteristics of the two data repositories.
  *
  * The paper catalogs Open Data (69K tables, 29.5M columns, 28.6M joinable
  * columns, 119 GB) and Kaggle (1950 tables, 91K columns, 6.7M joinable,
  * 18 GB). We generate both as synthetic repositories scaled ~1/100 and
  * ~1/10 in table count (`SynthData.repoCells`), then *measure* the same
  * four statistics: table count, column count and materialised bytes with
  * Spark aggregations, and joinable column pairs with Aurum-lite's
  * driver-side index over the collected distinct key cells.
  */
object RepoStats {

  /** Measured characteristics of one repository. */
  final case class Characteristics(
      name: String,
      nTables: Long,
      nColumns: Long,
      nJoinablePairs: Long,
      sizeBytes: Long,
  )

  /** Scaled-down stand-in for the paper's Open Data repository. */
  def openDataLite(spark: SparkSession): DataFrame =
    SynthData.repoCells(spark, nTables = 690, keyCols = 2, nDomains = 30, colSpread = 60, rowSpread = 80, seed = 6)

  /** Scaled-down stand-in for the paper's Kaggle repository. */
  def kaggleLite(spark: SparkSession): DataFrame =
    SynthData.repoCells(spark, nTables = 195, keyCols = 3, nDomains = 12, colSpread = 70, rowSpread = 60, seed = 60)

  /** Compute the Table-I statistics of a cell-level repository with Spark
    * aggregations; joinable pairs come from the same containment index
    * ([[JoinDiscovery.joinablePairs]]) the search pipeline uses, over the
    * distinct non-null cells of the key columns `col_0`..`col_2`.
    */
  def characteristics(spark: SparkSession, name: String, cells: DataFrame,
                      minContainment: Double = 0.5): Characteristics = {
    val cached = cells.cache()
    try {
      val nTables = cached.select(countDistinct(col("table"))).head().getLong(0)
      val nColumns = cached.select(countDistinct(col("table"), col("col"))).head().getLong(0)
      val sizeBytes = cached
        .select(sum(length(col("value")) + length(col("col")) + length(col("table")) + lit(8)))
        .head().getLong(0)
      val keyColumns = cached
        .where(col("col").isin("col_0", "col_1", "col_2") && col("value").isNotNull)
        .select("table", "col", "value").collect()
        .groupMapReduce(r => (r.getString(0), r.getString(1)))(r => Set(r.getString(2)))(_ ++ _)
      val nJoinable = JoinDiscovery.joinablePairs(keyColumns, minContainment).size.toLong
      Characteristics(name, nTables, nColumns, nJoinable, sizeBytes)
    } finally { cached.unpersist(); () }
  }
}
