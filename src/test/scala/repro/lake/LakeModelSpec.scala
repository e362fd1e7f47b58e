package repro.lake

import repro.{Oracle, SparkSpec}

class LakeModelSpec extends SparkSpec {

  private def table(name: String): LakeTable = LakeTable(
    TableMeta(name, "src", Vector("key"), Vector("tok")),
    Vector(
      "key" -> Array(Some("a"), Some("b"), Some("c")),
      "v" -> Array(Some("1"), None, Some("3")),
    ),
  )

  test("LakeTable basic accessors") {
    val t = table("t1")
    assert(t.nRows == 3 && t.nCols == 2)
    assert(t.columnNames == Vector("key", "v"))
    assert(t.column("v").toSeq == Seq(Some("1"), None, Some("3")))
  }

  test("LakeTable numeric parses doubles and drops failures") {
    val t = LakeTable(
      TableMeta("t", "s", Vector.empty, Vector.empty),
      Vector("x" -> Array(Some("1.5"), Some("oops"), None)),
    )
    assert(t.numeric("x").toSeq == Seq(Some(1.5), None, None))
  }

  test("LakeTable rejects ragged columns") {
    intercept[IllegalArgumentException] {
      LakeTable(TableMeta("t", "s", Vector.empty, Vector.empty),
        Vector("a" -> Array(Some("1")), "b" -> Array(Some("1"), Some("2"))))
    }
  }

  test("LakeTable rejects duplicate column names") {
    intercept[IllegalArgumentException] {
      LakeTable(TableMeta("t", "s", Vector.empty, Vector.empty),
        Vector("a" -> Array(Some("1")), "a" -> Array(Some("2"))))
    }
  }

  test("toDf carries __rowid aligned to driver rows") {
    val df = Oracle.toDf(spark, table("t1"))
    val rows = df.orderBy("__rowid").collect()
    assert(rows.map(_.getLong(0)).toSeq == Seq(0L, 1L, 2L))
    assert(rows.map(_.getString(1)).toSeq == Seq("a", "b", "c"))
    assert(rows(1).isNullAt(2))
  }

  test("toDf row count matches via DuckDB oracle") {
    val df = Oracle.toDf(spark, table("t1"))
    Oracle.assertEquivalent(
      df.groupBy().count().withColumnRenamed("count", "n"),
      "SELECT COUNT(*) AS n FROM t",
      "t" -> df,
    )
  }

  test("Lake rejects duplicate table names") {
    intercept[IllegalArgumentException](Lake(Vector(table("t"), table("t"))))
  }

  test("Lake.table retrieves by name and fails on unknown") {
    val lake = Lake(Vector(table("t1"), table("t2")))
    assert(lake.table("t2").meta.name == "t2")
    intercept[RuntimeException](lake.table("nope"))
  }

  test("keyColumns lists each key column's non-null cells in lake order") {
    val twoKeys = LakeTable(
      TableMeta("t2", "src", Vector("key", "k2"), Vector("tok")),
      Vector(
        "key" -> Array(Some("a"), None, Some("a"), Some("b")),
        "k2" -> Array(None, None, None, None),
        "v" -> Array(Some("1"), Some("2"), Some("3"), Some("4")),
      ),
    )
    val lake = Lake(Vector(table("t1"), twoKeys))
    assert(lake.keyColumns.map { case (col, cells) => col -> cells.toVector } == Vector(
      ("t1", "key") -> Vector("a", "b", "c"),
      ("t2", "key") -> Vector("a", "a", "b"),
      ("t2", "k2") -> Vector.empty[String],
    ))
  }

  test("LocalTable add appends aligned column") {
    val lt = LocalTable(Vector("a" -> Array(Some("1"), Some("2"))))
    val lt2 = lt.add("b", Array(None, Some("x")))
    assert(lt2.columnNames == Vector("a", "b"))
    assert(lt2.column("b").toSeq == Seq(None, Some("x")))
  }

  test("LocalTable add rejects wrong row count") {
    val lt = LocalTable(Vector("a" -> Array(Some("1"))))
    intercept[IllegalArgumentException](lt.add("b", Array(Some("1"), Some("2"))))
  }

  test("LocalTable numeric view") {
    val lt = LocalTable(Vector("x" -> Array(Some("2.0"), Some("nope"))))
    assert(lt.numeric("x").toSeq == Seq(Some(2.0), None))
  }
}
