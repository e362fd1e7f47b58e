package repro.lake

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}

/** Metadata describing a lake table — the substrate for the paper's
  * metadata/attributes profile and the semantic-embedding profile.
  *
  * @param name       unique table name within the repository
  * @param source     data source / portal the table came from (paper: NYC
  *                   open data, worldbank, kaggle, ...)
  * @param keyCols    columns that act as join keys (what Aurum would index)
  * @param vocabulary tokens describing the table's topic; stands in for the
  *                   token stream a BERT-style embedder would consume
  */
final case class TableMeta(
    name: String,
    source: String,
    keyCols: Vector[String],
    vocabulary: Vector[String],
)

/** A column-oriented table small enough to keep a driver-side copy.
  *
  * The driver copy is the ground truth: augmentation joins and the
  * deterministic task implementations read it directly, discovery reads
  * its key columns' distinct values, and profiling sees it through the
  * lake's tall cell view ([[Lake.valueCellsDf]]). Values are stored
  * as strings so one representation serves numeric columns, join keys, and
  * entity names.
  */
final case class LakeTable(
    meta: TableMeta,
    columns: Vector[(String, Array[Option[String]])],
) {
  require(columns.nonEmpty, s"table ${meta.name} has no columns")
  require(columns.map(_._2.length).distinct.size == 1, s"ragged columns in ${meta.name}")
  require(columns.map(_._1).distinct.size == columns.size, s"duplicate column names in ${meta.name}")

  def nRows: Int = columns.head._2.length
  def nCols: Int = columns.size
  def columnNames: Vector[String] = columns.map(_._1)

  def column(name: String): Array[Option[String]] =
    columns.find(_._1 == name).getOrElse(sys.error(s"no column $name in ${meta.name}"))._2

  /** Numeric view of a column: entries that fail to parse become None. */
  def numeric(name: String): Array[Option[Double]] =
    column(name).map(_.flatMap(_.toDoubleOption))
}

object LakeTable {

  /** Build from named columns of doubles (the common numeric case). */
  def numericTable(meta: TableMeta, cols: (String, Array[Double])*): LakeTable =
    LakeTable(meta, cols.toVector.map { case (n, vs) => n -> vs.map(v => Some(v.toString): Option[String]) })
}

/** A data repository (Definition 2): a set of possibly noisy tables. */
final case class Lake(tables: Vector[LakeTable]) {
  require(tables.map(_.meta.name).distinct.size == tables.size, "duplicate table names in lake")

  private val byName: Map[String, LakeTable] = tables.map(t => t.meta.name -> t).toMap

  def table(name: String): LakeTable =
    byName.getOrElse(name, sys.error(s"no table $name in lake"))

  def size: Int = tables.size

  /** Distinct non-null values of every key column, by (table, column) —
    * what Aurum-lite's inverted index ([[repro.discovery.JoinDiscovery]])
    * discovers joins over.
    */
  def keyColumns: Map[(String, String), Set[String]] =
    (for (t <- tables; kc <- t.meta.keyCols) yield (t.meta.name, kc) -> t.column(kc).iterator.flatten.toSet).toMap

  /** Tall (table, valueCol, key, value) view pairing each non-key column
    * with the table's first key column — the batched input for profiling
    * all candidates in a constant number of Spark jobs.
    */
  def valueCellsDf(spark: SparkSession): DataFrame = {
    val schema = StructType(Seq(
      StructField("table", StringType, nullable = false),
      StructField("valueCol", StringType, nullable = false),
      StructField("key", StringType, nullable = true),
      StructField("value", StringType, nullable = true),
    ))
    val rows = for {
      t <- tables
      keyCol = t.meta.keyCols.headOption.getOrElse(t.columnNames.head)
      keys = t.column(keyCol)
      (cn, vals) <- t.columns if !t.meta.keyCols.contains(cn)
      i <- 0 until t.nRows
    } yield Row(t.meta.name, cn, keys(i).orNull, vals(i).orNull)
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
  }
}

/** Column-oriented local view of an (augmented) dataset — what the
  * deterministic black-box tasks consume.
  */
final case class LocalTable(columns: Vector[(String, Array[Option[String]])]) {
  require(columns.map(_._2.length).distinct.size <= 1, "ragged columns")

  def nRows: Int = if (columns.isEmpty) 0 else columns.head._2.length
  def columnNames: Vector[String] = columns.map(_._1)
  def has(name: String): Boolean = columns.exists(_._1 == name)

  def column(name: String): Array[Option[String]] =
    columns.find(_._1 == name).getOrElse(sys.error(s"no column $name"))._2

  def numeric(name: String): Array[Option[Double]] =
    column(name).map(_.flatMap(_.toDoubleOption))

  def add(name: String, values: Array[Option[String]]): LocalTable = {
    require(columns.isEmpty || values.length == nRows, "row count mismatch")
    LocalTable(columns :+ (name -> values))
  }
}
