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
  * four statistics from one Spark aggregation: table count, column count
  * and materialised bytes, and joinable column pairs with Aurum-lite's
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

  /** Compute the Table-I statistics of a cell-level repository in one Spark
    * aggregation, collected on the driver: the materialised bytes (null
    * cells count nothing) of each column and, in key columns `col_0`..`col_2`,
    * of each distinct value. Grouping by the key value rather than
    * collecting a set per column keeps the aggregation a plain hash
    * aggregate. Tables, columns and bytes are then counted on the driver,
    * and joinable pairs come from the same containment index
    * ([[JoinDiscovery.joinablePairs]]) the search pipeline uses, over the
    * key columns with at least one non-null value.
    */
  def characteristics(spark: SparkSession, name: String, cells: DataFrame,
                      minContainment: Double = 0.5): Characteristics = {
    val groups = cells
      .groupBy(col("table"), col("col"), when(col("col").isin("col_0", "col_1", "col_2"), col("value")))
      .agg(sum(length(col("value")) + length(col("col")) + length(col("table")) + lit(8)))
      .collect()
    val nTables = groups.filterNot(_.isNullAt(0)).map(_.getString(0)).distinct.length.toLong
    val nColumns = groups.filter(r => !r.isNullAt(0) && !r.isNullAt(1))
      .map(r => (r.getString(0), r.getString(1))).distinct.length.toLong
    val sizeBytes = groups.map(r => if (r.isNullAt(3)) 0L else r.getLong(3)).sum
    val keyColumns = groups.filterNot(_.isNullAt(2)).toSeq
      .groupMap(r => (r.getString(0), r.getString(1)))(_.getString(2))
    val nJoinable = JoinDiscovery.joinablePairs(keyColumns, minContainment).size.toLong
    Characteristics(name, nTables, nColumns, nJoinable, sizeBytes)
  }
}
