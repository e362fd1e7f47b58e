package repro.bench

import repro.{ProfileDigest, SparkSpec}
import repro.core.{Runner, SearchResult}
import repro.core.Runner.ScenarioRun
import repro.lake.{Scenario, ScenarioGen, ScenarioSpec, TaskKind}

/** Reproduces the §VI-A-4 generalization experiments reported in the text
  * (entity linking, fair classification, clustering) and the §VI-A-3
  * semi-synthetic average (Fig. 5's headline): METAM needs the fewest
  * queries / attains the highest utility.
  */
class GeneralizationBench extends SparkSpec {

  private def queriesTo(r: SearchResult, theta: Double): String =
    r.queriesTo(theta).map(_.toString).getOrElse(">" + r.queriesUsed)

  private def printDigest(run: ScenarioRun): Unit =
    println(s"[bench] ${run.scenario.spec.name} profiles sha256=${ProfileDigest.sha256(run.profiles)}")

  test("entity linking: METAM finds the disambiguating augmentation in few queries") {
    val s = ScenarioGen.entityLinking()
    val theta = 0.95
    val run = Runner.run(spark, s, theta, budget = 120)
    val m = run.results("METAM")
    println(s"[bench] entity-linking n=${run.candidates.size} " +
      Runner.DefaultMethods.map(x => s"$x=${queriesTo(run.results(x), theta)}q").mkString(" "))
    printDigest(run)
    // Paper: METAM 4 queries, MW 10, others > 40.
    assert(m.utility >= theta)
    val mQ = m.queriesTo(theta).get
    assert(mQ <= 20, s"METAM needed $mQ queries")
    Seq("Overlap", "Uniform").foreach { b =>
      val bq = run.results(b).queriesTo(theta).getOrElse(Int.MaxValue)
      assert(mQ <= bq, s"METAM ($mQ) should not need more queries than $b ($bq)")
    }
  }

  test("fair classification: METAM skips the unfair high-correlation cluster") {
    val s = ScenarioGen.fairClassification()
    val run = Runner.run(spark, s, theta = 0.95, budget = 50, metamCfg = repro.core.MetamConfig(tau = 10))
    val m = run.results("METAM")
    println(s"[bench] fair-credit n=${run.candidates.size} " +
      Runner.DefaultMethods.map(x => f"$x=${run.results(x).utilityAt(50)}%.2f").mkString(" "))
    printDigest(run)
    // Paper: METAM reaches the target in few queries; single-profile
    // ranking baselines fail within 50 because the correlation ranking is
    // dominated by unfair (discarded) candidates.
    assert(m.utilityAt(50) >= run.results.values.map(_.utilityAt(50)).max - 1e-9)
    assert(m.solution.exists(c => s.groundTruthTables.contains(c.table)),
      s"METAM solution ${m.solution.map(_.table)} contains no fair ground-truth table")
  }

  test("clustering: small candidate set, every method succeeds quickly") {
    val s = ScenarioGen.clusteringScenario()
    val theta = 0.9
    val run = Runner.run(spark, s, theta, budget = 20)
    println(s"[bench] clustering n=${run.candidates.size} " +
      Runner.DefaultMethods.map(x => s"$x=${queriesTo(run.results(x), theta)}q").mkString(" "))
    printDigest(run)
    // Paper: ~4 queries for every technique on 8 candidates.
    run.results.values.foreach { r =>
      assert(r.utility >= theta, s"${r.method} got ${r.utility}")
      assert(r.queriesTo(theta).get <= 15)
    }
  }

  test("semi-synthetic average (Fig. 5 headline): METAM dominates baselines") {
    val budget = 60
    val runs = (0 until 3).map { i =>
      val spec = ScenarioSpec(s"semi$i", TaskKind.Causal, rows = 250, nSignals = 3, dupsPerPlanted = 1,
        nIrrelevant = 100, nIrrelevantDups = 40, nTopicIrrelevant = 10, nErroneous = 60, seed = 900 + i)
      Runner.run(spark, ScenarioGen.scenario(spec), theta = 1.0, budget = budget, seed = 900 + i,
        metamCfg = repro.core.MetamConfig(tau = 10))
    }
    val avg = Runner.DefaultMethods.map { m =>
      m -> runs.map(_.results(m).utilityAt(budget)).sum / runs.size
    }.toMap
    println("[bench] semi-synthetic avg: " + Runner.DefaultMethods.map(m => f"$m=${avg(m)}%.2f").mkString(" "))
    runs.foreach(printDigest)
    assert(avg("METAM") >= avg.values.max - 1e-9)
    assert(avg("METAM") > avg("Uniform"), "METAM should beat uniform sampling on average")
  }
}
