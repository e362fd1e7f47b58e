package repro.lake

import repro.util.NumericColumn

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
  * The driver copy is the ground truth: augmentation joins (and through
  * them profiling's sample rows) and the deterministic task
  * implementations read it directly, and discovery reads its key columns'
  * distinct values. Values are stored as strings so one representation
  * serves numeric columns, join keys, and entity names.
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
    column(name).map(NumericColumn.parse)
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
}

/** Column-oriented local view of an (augmented) dataset — what the
  * deterministic black-box tasks consume.
  *
  * Tasks read numeric columns through [[numeric]], the column's
  * [[NumericColumn]] from `parsed`. [[repro.core.AugmentEngine.localTable]]
  * passes its engine's views, so a column is parsed once per engine
  * however many queries read it; a table built on its own parses each
  * column once for itself and the tables `add` derives from it.
  */
final case class LocalTable(
    columns: Vector[(String, Array[Option[String]])],
    parsed: ParsedColumns = new ParsedColumns,
) {
  require(columns.map(_._2.length).distinct.size <= 1, "ragged columns")

  def nRows: Int = if (columns.isEmpty) 0 else columns.head._2.length
  def columnNames: Vector[String] = columns.map(_._1)
  def has(name: String): Boolean = columns.exists(_._1 == name)

  def column(name: String): Array[Option[String]] =
    columns.find(_._1 == name).getOrElse(sys.error(s"no column $name"))._2

  /** Numeric view of a column, parsed on its first read. */
  def numeric(name: String): NumericColumn = parsed(column(name))

  def add(name: String, values: Array[Option[String]]): LocalTable = {
    require(columns.isEmpty || values.length == nRows, "row count mismatch")
    LocalTable(columns :+ (name -> values), parsed)
  }
}

/** Numeric views of string columns: each column array is parsed with
  * [[NumericColumn.of]] the first time it is read, and its view is kept as
  * long as this object is. Columns are told apart by identity, since a
  * materialised column is never modified.
  */
final class ParsedColumns {
  private val views = new java.util.IdentityHashMap[Array[Option[String]], NumericColumn]

  def apply(cells: Array[Option[String]]): NumericColumn = {
    val known = views.get(cells)
    if (known != null) known
    else {
      val view = NumericColumn.of(cells)
      views.put(cells, view)
      view
    }
  }
}
