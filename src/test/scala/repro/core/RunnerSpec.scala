package repro.core

import repro.SparkSpec
import repro.lake.{Lake, LakeTable, LocalTable, ScenarioGen, ScenarioSpec, TableMeta, TaskKind}

class RunnerSpec extends SparkSpec {

  private val spec = ScenarioSpec("mini", TaskKind.Causal, rows = 200, nSignals = 2, dupsPerPlanted = 1,
    nIrrelevant = 10, nIrrelevantDups = 4, nTopicIrrelevant = 3, nErroneous = 8, seed = 31)

  test("prepare discovers candidates covering the whole lake (incl. erroneous)") {
    val s = ScenarioGen.scenario(spec)
    val (_, cands, profiles) = Runner.prepare(spark, s)
    // All correct-join tables plus the approximately-matching erroneous ones.
    assert(cands.size >= s.lake.size - spec.nErroneous)
    assert(profiles.byId.size == cands.size)
    // Planted candidates must be discovered.
    assert(s.groundTruthTables.subsetOf(cands.map(_.table).toSet))
  }

  test("runs all four Table II methods end to end on a mini scenario") {
    val s = ScenarioGen.scenario(spec)
    val run = Runner.run(spark, s, theta = 1.0, budget = 60, seed = 77)
    assert(run.results.keySet == Runner.DefaultMethods.toSet)
    run.results.values.foreach { r =>
      assert(r.queriesUsed <= 60)
      assert(r.utility >= 0.0 && r.utility <= 1.0)
    }
  }

  test("METAM recovers the planted causal signals on the mini scenario") {
    val s = ScenarioGen.scenario(spec)
    val run = Runner.run(spark, s, theta = 1.0, budget = 120, methods = Seq("METAM"))
    val res = run.results("METAM")
    assert(res.utility >= 0.99, s"utility ${res.utility} after ${res.queriesUsed} queries")
    assert(res.solution.forall(c => s.groundTruthTables.contains(c.table)))
  }

  test("METAM at the same budget is at least as good as Uniform") {
    val s = ScenarioGen.scenario(spec.copy(seed = 32))
    val budget = 40
    val run = Runner.run(spark, s, theta = 1.0, budget = budget, methods = Seq("METAM", "Uniform"))
    assert(run.results("METAM").utilityAt(budget) >= run.results("Uniform").utilityAt(budget))
  }

  test("a lake with nothing joinable gives no candidates, and every method returns the input's utility") {
    val s = ScenarioGen.scenario(spec)
    val noJoins = s.copy(lake = Lake(Vector(LakeTable(TableMeta("foreign", "src", Vector("key"), Vector.empty),
      Vector("key" -> Array(Some("nope")), "v" -> Array(Some("1")))))))
    val (_, cands, profiles) = Runner.prepare(spark, noJoins)
    assert(cands.isEmpty && profiles.byId.isEmpty)
    val base = s.task.utility(LocalTable(s.input.columns))
    val run = Runner.run(spark, noJoins, theta = 1.0, budget = 10)
    assert(run.results.keySet == Runner.DefaultMethods.toSet)
    run.results.values.foreach { r =>
      assert(r.solution.isEmpty && r.utility == base && r.queriesUsed == 1, r)
    }
  }

  test("unknown method names are rejected") {
    val s = ScenarioGen.scenario(spec)
    intercept[RuntimeException](Runner.run(spark, s, 1.0, 10, methods = Seq("Nope")))
  }
}
