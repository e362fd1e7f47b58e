package repro

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

import repro.lake.LakeTable

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``; ``query(tables)(sqls)`` returns the rows of
  * queries over driver tables. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  /** Spark view of a driver table with a stable `__rowid` (the driver row
    * index), so oracle queries can realign results with the driver copy.
    */
  def toDf(spark: SparkSession, t: LakeTable): DataFrame = {
    val schema = StructType(
      StructField("__rowid", LongType, nullable = false) +:
        t.columns.map { case (n, _) => StructField(n, StringType, nullable = true) }
    )
    val rows = (0 until t.nRows).map(i => Row.fromSeq(i.toLong +: t.columns.map(_._2(i).orNull)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), schema)
  }

  /** Load `rows` into a new DuckDB table `name` of VARCHAR columns `cols`. */
  private def load(conn: Connection, name: String, cols: Seq[String], rows: Iterator[Seq[String]]): Unit = {
    conn.createStatement.execute(
      s"CREATE TABLE \"$name\" (${cols.map(c => s"\"$c\" VARCHAR").mkString(", ")})"
    )
    val ps = conn.prepareStatement(
      s"INSERT INTO \"$name\" VALUES (${cols.map(_ => "?").mkString(",")})"
    )
    rows.foreach { r =>
      cols.indices.foreach(i => ps.setString(i + 1, r(i)))
      ps.addBatch()
    }
    ps.executeBatch(); ps.close()
  }

  /** Column labels and rows of `sql` on `conn`. */
  private def select(conn: Connection, sql: String): (Seq[String], Seq[Row]) = {
    val rs   = conn.createStatement.executeQuery(sql)
    val meta = rs.getMetaData
    val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
    val rows = Iterator
      .continually(rs)
      .takeWhile(_.next())
      .map(r => Row.fromSeq((1 to cols.size).map(r.getObject)))
      .toSeq
    (cols, rows)
  }

  private def connect(): Connection = {
    Class.forName("org.duckdb.DuckDBDriver")
    DriverManager.getConnection("jdbc:duckdb:")
  }

  /** The rows of each of `sqls`, run on DuckDB over driver `tables`, each
    * loaded under its name with its columns' names, every column VARCHAR.
    */
  def query(tables: (String, LakeTable)*)(sqls: Seq[String]): Seq[Seq[Row]] = {
    val conn = connect()
    try {
      for ((name, t) <- tables) load(conn, name, t.columnNames, (0 until t.nRows).iterator.map(i => t.columns.map(_._2(i).orNull)))
      sqls.map(select(conn, _)._2)
    } finally conn.close()
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    val conn = connect()
    try {
      // Collect once; this is an oracle, not a bench — keep tables small.
      for ((name, df) <- tables)
        load(conn, name, df.columns.toSeq, df.collect().iterator.map(r => r.toSeq.map(v => Option(v).map(_.toString).orNull)))
      val (dCols, dRows) = select(conn, sql)
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }
}
