package repro.lake

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

import repro.{Oracle, SparkSpec, SynthData}

class RepoStatsSpec extends SparkSpec {

  test("repoCells produces the documented table and column counts") {
    val cells = SynthData.repoCells(spark, nTables = 5, colSpread = 3, rowSpread = 4).cache()
    val nTables = cells.select(countDistinct(col("table"))).head().getLong(0)
    assert(nTables == 5)
    // table t has 11 + t % 3 columns.
    val colCounts = cells.groupBy("table").agg(countDistinct(col("col")).as("c"))
      .collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(colCounts("table_0") == 11 && colCounts("table_1") == 12 && colCounts("table_3") == 11)
    cells.unpersist()
  }

  test("repoCells row counts follow 41 + t % rowSpread") {
    val cells = SynthData.repoCells(spark, nTables = 3, colSpread = 2, rowSpread = 5)
    val rows = cells.where(col("col") === "col_0").groupBy("table").count()
      .collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(rows("table_0") == 41 && rows("table_2") == 43)
  }

  test("repoCells key columns share domains, value columns are unique") {
    val cells = SynthData.repoCells(spark, nTables = 6, keyCols = 1, nDomains = 2).cache()
    val keyVals = cells.where(col("col") === "col_0").select("value").distinct().count()
    val valueCells = cells.where(col("col") =!= "col_0")
    val nonKey = valueCells.count()
    val nonKeyDistinct = valueCells.select("value").distinct().count()
    assert(keyVals < 2L * 100 + 1) // at most nDomains * domainSize distinct key values
    assert(nonKey == nonKeyDistinct) // unique → never joinable
    cells.unpersist()
  }

  test("repoCells is deterministic in the seed") {
    val a = SynthData.repoCells(spark, 3, seed = 9).orderBy("table", "col", "__rowid").collect()
    val b = SynthData.repoCells(spark, 3, seed = 9).orderBy("table", "col", "__rowid").collect()
    assert(a.toSeq == b.toSeq)
  }

  test("characteristics measures a tiny repository correctly") {
    val cells = SynthData.repoCells(spark, nTables = 8, keyCols = 1, nDomains = 1, domainSize = 20,
      colSpread = 2, rowSpread = 2)
    val ch = RepoStats.characteristics(spark, "tiny", cells, minContainment = 0.5)
    assert(ch.nTables == 8)
    // 11 + t % 2 columns per table → 4*11 + 4*12 = 92.
    assert(ch.nColumns == 92)
    assert(ch.sizeBytes > 0)
    // Single shared domain of 20 values over 41+ rows → high containment
    // between every pair of key columns: 8*7 ordered pairs.
    assert(ch.nJoinablePairs == 56)
  }

  test("characteristics counts joinable pairs as the DuckDB oracle does at partial containment") {
    // Three domains of 60 values drawn 41-70 times per key column: a column
    // covers about half to two thirds of its domain, so containment falls on
    // both sides of 0.5.
    val cells = SynthData.repoCells(spark, nTables = 12, keyCols = 2, nDomains = 3, domainSize = 60,
      colSpread = 2, rowSpread = 30)
    val ch = RepoStats.characteristics(spark, "partial", cells, minContainment = 0.5)
    val keyCells = cells.where(col("col").isin("col_0", "col_1", "col_2"))
      .select(col("table").as("tbl"), col("col").as("c"), col("value"))
    val sql =
      """WITH dc AS (SELECT DISTINCT tbl, c, value FROM cells WHERE value IS NOT NULL),
        |n AS (SELECT tbl, c, COUNT(*) AS n FROM dc GROUP BY tbl, c),
        |o AS (SELECT l.tbl, l.c, COUNT(*) AS overlap FROM dc l
        |      JOIN dc r ON l.value = r.value AND l.tbl <> r.tbl GROUP BY l.tbl, l.c, r.tbl, r.c)
        |SELECT CAST(COUNT(*) AS VARCHAR) AS pairs FROM o JOIN n ON n.tbl = o.tbl AND n.c = o.c
        |WHERE CAST(o.overlap AS DOUBLE) / n.n >= %s""".stripMargin
    Oracle.assertEquivalent(spark.createDataFrame(Seq(Tuple1(ch.nJoinablePairs.toString))).toDF("pairs"),
      sql.format("0.5"), "cells" -> keyCells)
    // The threshold matters: some but not all column pairs that share a
    // domain reach 0.5.
    val loose = RepoStats.characteristics(spark, "partial", cells, minContainment = 0.01)
    assert(ch.nJoinablePairs > 0 && ch.nJoinablePairs < loose.nJoinablePairs)
  }

  test("characteristics of a repository with null cells match the DuckDB oracle") {
    // An all-null key column in two tables, a null-heavy value column, and
    // key columns with some null cells.
    val n: String = null
    val columns: Seq[(String, String, Seq[String])] = Seq(
      ("tA", "col_0", Seq("k1", "k2", n, "k3")),
      ("tA", "col_1", Seq(n, n, n, n)),
      ("tA", "col_5", Seq(n, n, "x", n)),
      ("tB", "col_0", Seq("k1", "k2", "k4", n)),
      ("tB", "col_1", Seq("k1", n, "k2", n)),
      ("tB", "col_3", Seq(n, n, n, "yy")),
      ("tC", "col_0", Seq(n, n, n, n)),
      ("tC", "col_2", Seq("k3", "k3", "k1", n)),
      ("tC", "col_7", Seq("zz", n, n, n)),
    )
    val schema = StructType(Seq(
      StructField("table", StringType, nullable = false),
      StructField("col", StringType, nullable = false),
      StructField("__rowid", LongType, nullable = false),
      StructField("value", StringType, nullable = true),
    ))
    val rows = for ((t, c, vs) <- columns; (v, r) <- vs.zipWithIndex) yield Row(t, c, r.toLong, v)
    val cells = spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), schema)
    val ch = RepoStats.characteristics(spark, "nulls", cells, minContainment = 0.5)
    val sql =
      """WITH dc AS (SELECT DISTINCT tbl, c, value FROM cells
        |            WHERE value IS NOT NULL AND c IN ('col_0', 'col_1', 'col_2')),
        |n AS (SELECT tbl, c, COUNT(*) AS n FROM dc GROUP BY tbl, c),
        |o AS (SELECT l.tbl, l.c, COUNT(*) AS overlap FROM dc l
        |      JOIN dc r ON l.value = r.value AND l.tbl <> r.tbl GROUP BY l.tbl, l.c, r.tbl, r.c)
        |SELECT CAST((SELECT COUNT(DISTINCT tbl) FROM cells) AS VARCHAR) AS tables,
        |       CAST((SELECT COUNT(*) FROM (SELECT DISTINCT tbl, c FROM cells)) AS VARCHAR) AS cols,
        |       CAST((SELECT SUM(LENGTH(value) + LENGTH(c) + LENGTH(tbl) + 8) FROM cells) AS VARCHAR) AS bytes,
        |       CAST((SELECT COUNT(*) FROM o JOIN n ON n.tbl = o.tbl AND n.c = o.c
        |             WHERE CAST(o.overlap AS DOUBLE) / n.n >= 0.5) AS VARCHAR) AS pairs""".stripMargin
    val got = Seq((ch.nTables.toString, ch.nColumns.toString, ch.sizeBytes.toString, ch.nJoinablePairs.toString))
    Oracle.assertEquivalent(spark.createDataFrame(got).toDF("tables", "cols", "bytes", "pairs"), sql,
      "cells" -> cells.select(col("table").as("tbl"), col("col").as("c"), col("value")))
    // Driver reference: every non-null cell's bytes; the all-null key
    // columns tA.col_1 and tC.col_0 join nothing.
    val bytes = rows.collect { case Row(t: String, c: String, _, v: String) => v.length + c.length + t.length + 8 }.sum
    assert(ch == RepoStats.Characteristics("nulls", 3, 9, 9, bytes.toLong))
  }

  test("openDataLite is larger than kaggleLite on every axis") {
    val open = RepoStats.openDataLite(spark).limit(0) // schema check only
    assert(open.columns.toSeq == Seq("table", "col", "__rowid", "value"))
    // Full-size comparison happens in the Table I bench; here just check
    // the generators' table counts stay in the paper's ~35:1 ratio.
    assert(690.0 / 195.0 > 3.0)
  }
}
