package repro.bench

import repro.SparkSpec
import repro.jobs.TableIJob
import repro.lake.RepoStats

/** Reproduces **Table I** (characteristics of the data repositories).
  *
  * Paper: Open-Data 69K tables / 29.5M columns / 28.6M joinable / 119G;
  * Kaggle 1950 / 91231 / 6.7M / 18G. We generate both repositories scaled
  * ~1/100 (Open Data) and ~1/10 (Kaggle) in table count and measure the
  * same statistics: tables, columns and bytes with Spark, joinable pairs
  * with Aurum-lite's driver-side containment index; the *shape* to preserve is Open-Data ≫ Kaggle on every axis and joinable
  * pairs forming a large multiple of the table count.
  */
class TableIBench extends SparkSpec {

  test("TABLE I: repository characteristics (paper vs measured)") {
    val t0 = System.nanoTime()
    val rows = TableIJob.compute(spark)
    val secs = (System.nanoTime() - t0) / 1e9
    println(TableIJob.render(rows))
    println(f"[bench] Table I computed in $secs%.1f s")

    val Seq(open, kaggle) = rows
    // Scaled table counts: 690 vs 195 (paper 69K vs 1950 at ~1/100 / ~1/10).
    assert(open.nTables == 690 && kaggle.nTables == 195)
    // Open-Data dominates Kaggle on every axis, as in the paper.
    assert(open.nColumns > kaggle.nColumns)
    assert(open.sizeBytes > kaggle.sizeBytes)
    // Joinable columns are abundant relative to table count (paper: 28.6M
    // pairs over 69K tables).
    assert(open.nJoinablePairs > open.nTables)
    assert(kaggle.nJoinablePairs > kaggle.nTables)
    // Columns per table in the paper's ballpark (Open Data ≈ 428/t is an
    // artifact of wide tables; ours ≈ 40/t — documented in EXPERIMENTS.md).
    assert(open.nColumns / open.nTables >= 10)
  }
}
