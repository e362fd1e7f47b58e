package repro.discovery

import org.apache.spark.sql.DataFrame
import scala.util.Random

import repro.{Oracle, SparkSpec}
import repro.lake.{Lake, LakeTable, TableMeta}

class JoinDiscoverySpec extends SparkSpec {

  private def t(name: String, keyVals: Seq[String], extraCols: (String, Seq[String])*): LakeTable =
    LakeTable(
      TableMeta(name, "src", Vector("key"), Vector(name)),
      ("key" -> keyVals.map(Option(_)).toArray) +:
        extraCols.toVector.map { case (n, vs) => n -> vs.map(Option(_)).toArray },
    )

  private val input = t("input", Seq("a", "b", "c", "d"), "target" -> Seq("1", "2", "3", "4"))
  private val full = t("full", Seq("a", "b", "c", "d"), "v" -> Seq("10", "20", "30", "40"))
  private val partial = t("partial", Seq("a", "b", "x", "y"), "w" -> Seq("5", "6", "7", "8"))
  private val disjoint = t("disjoint", Seq("p", "q", "r", "s"), "u" -> Seq("1", "1", "1", "1"))

  private def lakeOf(ts: LakeTable*) = Lake(ts.toVector)

  test("joinablePairs finds fully-contained columns") {
    val pairs = JoinDiscovery.joinablePairs(lakeOf(input, full).keyColumns, 0.9)
    assert(pairs.exists(p => p.leftTable == "input" && p.rightTable == "full" && p.containment == 1.0))
  }

  test("joinablePairs respects the containment threshold") {
    val columns = lakeOf(input, partial).keyColumns
    val strict = JoinDiscovery.joinablePairs(columns, 0.9)
    assert(!strict.exists(p => p.leftTable == "input" && p.rightTable == "partial"))
    val loose = JoinDiscovery.joinablePairs(columns, 0.5)
    assert(loose.exists(p => p.leftTable == "input" && p.rightTable == "partial" && p.containment == 0.5))
  }

  test("joinablePairs never pairs a table with itself") {
    val pairs = JoinDiscovery.joinablePairs(lakeOf(input, full, partial).keyColumns, 0.01)
    assert(pairs.forall(p => p.leftTable != p.rightTable))
  }

  test("joinablePairs excludes disjoint key domains") {
    val pairs = JoinDiscovery.joinablePairs(lakeOf(input, disjoint).keyColumns, 0.01)
    assert(pairs.isEmpty)
  }

  test("joinablePairs leftTables filter restricts anchors") {
    val pairs = JoinDiscovery.joinablePairs(lakeOf(input, full, partial).keyColumns, 0.1, Some(Set("input")))
    assert(pairs.nonEmpty && pairs.forall(_.leftTable == "input"))
  }

  /** Tall (tbl, c, value) view of a lake's key cells, nulls included. */
  private def keyCells(lake: Lake): DataFrame =
    spark.createDataFrame(for {
      t <- lake.tables
      kc <- t.meta.keyCols
      v <- t.column(kc).toSeq
    } yield (t.meta.name, kc, v.orNull)).toDF("tbl", "c", "value")

  /** `joinablePairs` of `lake` checked per column pair against the DuckDB
    * self-join over its key cells, anchored at `anchor` when given.
    */
  private def assertPairsMatchOracle(lake: Lake, minContainment: Double, anchor: Option[String]): Unit = {
    val pairs = JoinDiscovery.joinablePairs(lake.keyColumns, minContainment, anchor.map(Set(_)))
    assert(pairs == pairs.sortBy(p => (p.leftTable, p.leftCol, p.rightTable, p.rightCol)))
    val got = spark.createDataFrame(pairs.map(p =>
      (p.leftTable, p.leftCol, p.rightTable, p.rightCol, p.overlap.toString, p.containment)))
      .toDF("leftTable", "leftCol", "rightTable", "rightCol", "overlap", "containment")
    Oracle.assertEquivalent(
      got,
      s"""WITH dc AS (SELECT DISTINCT tbl, c, value FROM cells WHERE value IS NOT NULL),
         |n AS (SELECT tbl, c, COUNT(*) AS n FROM dc GROUP BY tbl, c)
         |SELECT l.tbl AS leftTable, l.c AS leftCol, r.tbl AS rightTable, r.c AS rightCol,
         |  CAST(COUNT(*) AS VARCHAR) AS overlap, CAST(COUNT(*) AS DOUBLE) / n.n AS containment
         |FROM dc l JOIN dc r ON l.value = r.value AND l.tbl <> r.tbl
         |JOIN n ON n.tbl = l.tbl AND n.c = l.c
         |${anchor.fold("")(a => s"WHERE l.tbl = '$a'")}
         |GROUP BY l.tbl, l.c, r.tbl, r.c, n.n
         |HAVING CAST(COUNT(*) AS DOUBLE) / n.n >= $minContainment""".stripMargin,
      "cells" -> keyCells(lake),
    )
  }

  test("overlap counts match the DuckDB oracle") {
    assertPairsMatchOracle(lakeOf(input, full, partial), 0.01, None)
  }

  /** A random lake with null, repeated and multi-column keys, anchored at a table "input". */
  private def randomLake(seed: Long): Lake = {
    val rnd = new Random(seed)
    def cells(n: Int, domain: Int, nullRate: Double): Seq[String] =
      Seq.fill(n)(if (rnd.nextDouble() < nullRate) null else s"k${rnd.nextInt(domain)}")
    def keyed(name: String, keys: (String, Seq[String])*): LakeTable = {
      val n = keys.head._2.size
      LakeTable(TableMeta(name, "src", keys.map(_._1).toVector, Vector(name)),
        keys.toVector.map { case (c, vs) => c -> vs.map(Option(_)).toArray } :+
          ("v" -> Array.tabulate(n)(i => Option(s"$name$i"))))
    }
    lakeOf(
      keyed("input", "key" -> cells(20, 12, 0.1)),
      keyed("repeats", "key" -> cells(30, 6, 0.2)), // few values, each repeated
      keyed("two", "key" -> cells(15, 16, 0.1), "k2" -> cells(15, 24, 0.3)),
      keyed("nulls", "key" -> Seq.fill(10)(null)), // all-null key column
      keyed("wide", "key" -> cells(25, 30, 0.05)),
    )
  }

  test("random lakes with null, repeated and multi-column keys match the DuckDB oracle") {
    Seq(1L, 2L, 3L).foreach { seed =>
      val lake = randomLake(seed)
      assertPairsMatchOracle(lake, 0.3, Some("input")) // 1-hop discovery
      assertPairsMatchOracle(lake, 0.3, None) // 2-hop discovery
    }
  }

  test("anchored discovery equals the all-pairs result filtered to the anchor, to the bit") {
    (1L to 30L).foreach { seed =>
      val lake = randomLake(seed)
      Seq(0.0, 0.3, 0.6).foreach { minContainment =>
        val anchored = JoinDiscovery.joinablePairs(lake.keyColumns, minContainment, Some(Set("input")))
        val all = JoinDiscovery.joinablePairs(lake.keyColumns, minContainment)
        val expected = all.filter(_.leftTable == "input")
        assert(anchored == expected, s"seed $seed, minContainment $minContainment")
        assert(anchored.map(p => java.lang.Double.doubleToRawLongBits(p.containment)) ==
          expected.map(p => java.lang.Double.doubleToRawLongBits(p.containment)))
      }
    }
  }

  test("candidatesFor returns one candidate per non-key column of joinable tables") {
    val multi = t("multi", Seq("a", "b", "c", "d"), "v1" -> Seq("1", "2", "3", "4"), "v2" -> Seq("9", "8", "7", "6"))
    val cands = JoinDiscovery.candidatesFor(spark, input, lakeOf(multi, disjoint), 0.5)
    assert(cands.map(c => (c.table, c.valueCol)).toSet == Set(("multi", "v1"), ("multi", "v2")))
  }

  test("candidatesFor assigns deterministic, unique ids") {
    val cands1 = JoinDiscovery.candidatesFor(spark, input, lakeOf(full, partial), 0.1)
    val cands2 = JoinDiscovery.candidatesFor(spark, input, lakeOf(full, partial), 0.1)
    assert(cands1.map(c => (c.id, c.table, c.valueCol)) == cands2.map(c => (c.id, c.table, c.valueCol)))
    assert(cands1.map(_.id).distinct.size == cands1.size)
  }

  test("candidatesFor admits approximate (erroneous) matches at low threshold") {
    val noisy = t("noisy", Seq("a", "x1", "x2", "x3"), "v" -> Seq("1", "2", "3", "4"))
    val loose = JoinDiscovery.candidatesFor(spark, input, lakeOf(noisy), 0.2)
    assert(loose.exists(_.table == "noisy"))
    val strict = JoinDiscovery.candidatesFor(spark, input, lakeOf(noisy), 0.5)
    assert(!strict.exists(_.table == "noisy"))
  }

  test("two-hop discovery chains through a bridge table") {
    val bridge = t("bridge", Seq("a", "b", "c", "d"),
      "district" -> Seq("d1", "d1", "d2", "d2"), "bname" -> Seq("n1", "n2", "n3", "n4"))
    val far = t("far", Seq("d1", "d2"), "pop" -> Seq("100", "200"))
    // far joins bridge via bridge.district ↔ far.key: register district as a key col of bridge.
    val bridgeKeyed = bridge.copy(meta = bridge.meta.copy(keyCols = Vector("key", "district")))
    val cands = JoinDiscovery.candidatesFor(spark, input, lakeOf(bridgeKeyed, far), 0.5, maxHops = 2)
    val twoHop = cands.filter(_.hops == 2)
    assert(twoHop.exists(c => c.table == "far" && c.valueCol == "pop"))
    assert(cands.exists(c => c.hops == 1 && c.table == "bridge" && c.valueCol == "bname"))
  }

  test("maxHops=1 yields only single-hop paths") {
    val cands = JoinDiscovery.candidatesFor(spark, input, lakeOf(full, partial), 0.1, maxHops = 1)
    assert(cands.forall(_.hops == 1))
  }

  test("candidate names are unique and reference their table") {
    val cands = JoinDiscovery.candidatesFor(spark, input, lakeOf(full, partial), 0.1)
    assert(cands.map(_.name).distinct.size == cands.size)
    assert(cands.forall(c => c.name.contains(c.table) && c.name.contains(c.valueCol)))
  }
}
