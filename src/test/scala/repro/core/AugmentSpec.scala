package repro.core

import org.apache.spark.sql.DataFrame
import scala.util.Random

import repro.{Oracle, SparkSpec}
import repro.lake.{Lake, LakeTable, TableMeta}

class AugmentSpec extends SparkSpec {

  private def t(name: String, cols: (String, Seq[Option[String]])*): LakeTable =
    LakeTable(TableMeta(name, "src", Vector("key"), Vector(name)),
      cols.toVector.map { case (n, vs) => n -> vs.toArray })

  private val input = t("input",
    "key" -> Seq(Some("a"), Some("b"), Some("c"), Some("d")),
    "target" -> Seq(Some("1"), Some("2"), Some("3"), Some("4")))

  private val right = t("right",
    "key" -> Seq(Some("a"), Some("b"), Some("b"), Some("x")),
    "v" -> Seq(Some("10"), Some("30"), Some("20"), Some("99")))

  private def engineWith(tables: LakeTable*) = new AugmentEngine(spark, input, Lake(tables.toVector))

  private val cand = Candidate(0, Vector(JoinEdge("key", "right", "key")), "v")

  test("column materialises a left join with min-dedup") {
    val eng = engineWith(right)
    // b matches two rows (30, 20) → min = "20"; c,d unmatched → None.
    assert(eng.column(cand).toSeq == Seq(Some("10"), Some("20"), None, None))
  }

  /** `eng.column(c)` as (rid, av) rows, the shape of the oracle queries. */
  private def columnDf(eng: AugmentEngine, c: Candidate): DataFrame = {
    import spark.implicits._
    eng.column(c).toSeq.zipWithIndex.map { case (v, i) => (i.toString, v.orNull) }.toDF("rid", "av")
  }

  private val oneHopSql =
    """SELECT i.__rowid AS rid, MIN(r.v) AS av
      |FROM input i LEFT JOIN rt r ON i.key = r.key
      |GROUP BY i.__rowid""".stripMargin

  private val twoHopSql =
    """SELECT i.__rowid AS rid, MIN(f.pop) AS av
      |FROM input i LEFT JOIN bridge b ON i.key = b.key LEFT JOIN far f ON b.district = f.key
      |GROUP BY i.__rowid""".stripMargin

  private def assertMatchesOracle(eng: AugmentEngine, c: Candidate, in: LakeTable, sql: String,
                                  tables: (String, LakeTable)*): Unit =
    Oracle.assertEquivalent(
      columnDf(eng, c), sql,
      ("input" -> Oracle.toDf(spark, in)) +: tables.map { case (n, tb) => n -> Oracle.toDf(spark, tb).drop("__rowid") }: _*
    )

  test("column matches the DuckDB left-join oracle") {
    assertMatchesOracle(engineWith(right), cand, input, oneHopSql, "rt" -> right)
  }

  test("two-hop fan-out through a duplicated bridge key takes the min over all paths") {
    // "a" reaches d1 and d2 through two bridge rows; d1 reaches "300" and
    // "95", d2 reaches "1000": the string min over all paths is "1000".
    val bridge = t("bridge",
      "key" -> Seq(Some("a"), Some("a"), Some("b")),
      "district" -> Seq(Some("d1"), Some("d2"), Some("d1")))
    val far = t("far",
      "key" -> Seq(Some("d1"), Some("d2"), Some("d1")),
      "pop" -> Seq(Some("300"), Some("1000"), Some("95")))
    val c = Candidate(3, Vector(JoinEdge("key", "bridge", "key"), JoinEdge("district", "far", "key")), "pop")
    val eng = engineWith(bridge, far)
    assert(eng.column(c).toSeq == Seq(Some("1000"), Some("300"), None, None))
    assertMatchesOracle(eng, c, input, twoHopSql, "bridge" -> bridge, "far" -> far)
  }

  test("random lakes with duplicate, null and unmatched keys match the DuckDB oracle") {
    Seq(1L, 2L, 3L).foreach { seed =>
      val rnd = new Random(seed)
      def cells(n: Int, domain: Seq[String], nullRate: Double): Seq[Option[String]] =
        Seq.fill(n)(if (rnd.nextDouble() < nullRate) None else Some(domain(rnd.nextInt(domain.size))))
      val keys = (0 until 12).map(i => s"k$i") // k10, k11 never reach the lake
      val districts = (0 until 6).map(i => s"d$i") // d5 is not a far key
      val nums = (0 until 40).map(_.toString)
      val in = t("input", "key" -> cells(30, keys, 0.1))
      val bridge = t("bridge",
        "key" -> cells(25, keys.take(10), 0.1),
        "district" -> cells(25, districts, 0.15),
        "v" -> cells(25, nums, 0.2))
      val far = t("far", "key" -> cells(15, districts.take(5), 0.1), "pop" -> cells(15, nums, 0.2))
      val eng = new AugmentEngine(spark, in, Lake(Vector(bridge, far)))
      val oneHop = Candidate(0, Vector(JoinEdge("key", "bridge", "key")), "v")
      val twoHop = Candidate(1, Vector(JoinEdge("key", "bridge", "key"), JoinEdge("district", "far", "key")), "pop")
      assertMatchesOracle(eng, oneHop, in, oneHopSql, "rt" -> bridge)
      assertMatchesOracle(eng, twoHop, in, twoHopSql, "bridge" -> bridge, "far" -> far)
    }
  }

  test("column is memoised (one materialisation per candidate)") {
    val eng = engineWith(right)
    eng.column(cand); eng.column(cand)
    assert(eng.materializations == 1)
  }

  test("concurrent readers get each candidate's one column, equal to a sequential engine's") {
    val rnd = new Random(11)
    val in = t("input", "key" -> Seq.tabulate(200)(i => Some(s"k$i")))
    def cell(p: Double, v: => String): Option[String] = if (rnd.nextDouble() < p) None else Some(v)
    // Ten tables of 300 rows: repeated and null keys, five value columns each.
    val tables = Vector.tabulate(10) { j =>
      t(s"t$j", ("key" -> Seq.fill(300)(cell(0.1, s"k${rnd.nextInt(260)}"))) +:
        (0 until 5).map(v => s"v$v" -> Seq.fill(300)(cell(0.2, rnd.nextInt(1000).toString))): _*)
    }
    val cands = for (j <- tables.indices; v <- 0 until 5)
      yield Candidate(j * 5 + v, Vector(JoinEdge("key", s"t$j", "key")), s"v$v")
    val eng = new AugmentEngine(spark, in, Lake(tables))
    val threads = 8
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    val reads = try {
      val start = new java.util.concurrent.CountDownLatch(1)
      val jobs = (0 until threads).map { k =>
        pool.submit(new java.util.concurrent.Callable[Seq[(Int, Array[Option[String]])]] {
          def call() = { start.await(); new Random(k).shuffle(cands ++ cands).map(c => c.id -> eng.column(c)) }
        })
      }
      start.countDown()
      jobs.flatMap(_.get())
    } finally pool.shutdownNow()

    assert(eng.materializations == cands.size)
    val sequential = new AugmentEngine(spark, in, Lake(tables))
    reads.groupMap(_._1)(_._2).foreach { case (id, arrays) =>
      assert(arrays.size == 2 * threads)
      assert(arrays.forall(_ eq arrays.head), s"candidate $id: readers got different arrays")
      assert(arrays.head.sameElements(sequential.column(cands(id))), s"candidate $id: column differs")
    }
  }

  test("prefetch batches one-hop candidates and matches per-candidate joins") {
    val other = t("other", "key" -> Seq(Some("a"), Some("c")), "w" -> Seq(Some("5"), Some("7")))
    val c2 = Candidate(1, Vector(JoinEdge("key", "other", "key")), "w")
    val engBatch = engineWith(right, other)
    engBatch.prefetch(Seq(cand, c2, cand))
    assert(engBatch.materializations == 2)
    val engLazy = engineWith(right, other)
    assert(engBatch.column(cand).toSeq == engLazy.column(cand).toSeq)
    assert(engBatch.column(c2).toSeq == engLazy.column(c2).toSeq)
    engBatch.prefetch(Seq(c2))
    assert(engBatch.materializations == 2)
  }

  test("prefetch on an all-foreign-key table yields all-None") {
    val foreign = t("foreign", "key" -> Seq(Some("z1"), Some("z2")), "u" -> Seq(Some("1"), Some("2")))
    val c = Candidate(5, Vector(JoinEdge("key", "foreign", "key")), "u")
    val eng = engineWith(foreign)
    eng.prefetch(Seq(c))
    assert(eng.column(c).forall(_.isEmpty))
  }

  test("localTable appends candidate columns after the input columns") {
    val eng = engineWith(right)
    val lt = eng.localTable(Seq(cand))
    assert(lt.columnNames == Vector("key", "target", cand.name))
    assert(lt.column(cand.name).toSeq == Seq(Some("10"), Some("20"), None, None))
  }

  test("localTable of empty selection is the input") {
    val eng = engineWith(right)
    assert(eng.localTable(Nil).columns == input.columns)
  }

  test("localTable calls sharing a candidate hand back the same numeric view") {
    val other = t("other", "key" -> Seq(Some("a"), Some("c")), "w" -> Seq(Some("5"), Some("7")))
    val c2 = Candidate(1, Vector(JoinEdge("key", "other", "key")), "w")
    val eng = engineWith(right, other)
    val a = eng.localTable(Seq(cand))
    val b = eng.localTable(Seq(cand, c2))
    assert(a.numeric(cand.name) eq b.numeric(cand.name))
    assert(a.numeric("target") eq b.numeric("target"))
    assert(eng.numeric(cand) eq b.numeric(cand.name))
    assert(b.numeric(cand.name).toSeq == Seq(Some(10.0), Some(20.0), None, None))
    assert(b.numeric(c2.name).toSeq == Seq(Some(5.0), None, Some(7.0), None))
    // Views live with their engine: another engine parses its own.
    assert(engineWith(right).localTable(Seq(cand)).numeric(cand.name) ne a.numeric(cand.name))
  }

  test("two-hop chain materialises through the bridge") {
    val bridge = t("bridge",
      "key" -> Seq(Some("a"), Some("b"), Some("c"), Some("d")),
      "district" -> Seq(Some("d1"), Some("d1"), Some("d2"), None))
    val far = t("far", "key" -> Seq(Some("d1"), Some("d2")), "pop" -> Seq(Some("100"), Some("200")))
    val c = Candidate(9, Vector(JoinEdge("key", "bridge", "key"), JoinEdge("district", "far", "key")), "pop")
    val eng = engineWith(bridge, far)
    assert(eng.column(c).toSeq == Seq(Some("100"), Some("100"), Some("200"), None))
  }

  test("candidate name encodes id, table and column") {
    assert(cand.name == "aug_0__right__v")
    assert(cand.describe.contains("right.key"))
  }

  test("candidate requires at least one hop") {
    intercept[IllegalArgumentException](Candidate(1, Vector.empty, "v"))
  }
}
