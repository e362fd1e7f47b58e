package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Runner
import repro.lake.{ScenarioGen, ScenarioSpec, TaskKind}

/** spark-submit entrypoint running METAM end-to-end on one scenario and
  * printing the discovered minimal augmentation set:
  * `spark-submit --class repro.jobs.MetamDemoJob <jar> [budget]`.
  */
object MetamDemoJob {

  def main(args: Array[String]): Unit = {
    val budget = args.headOption.map(_.toInt).getOrElse(300)
    val spark = SparkSession.builder().appName("metam-demo").getOrCreate()
    try {
      val scenario = ScenarioGen.scenario(
        ScenarioSpec("demo", TaskKind.Causal, rows = 400, nSignals = 3, nIrrelevant = 60,
          nIrrelevantDups = 20, nTopicIrrelevant = 10, nErroneous = 40, seed = 99))
      val run = Runner.run(spark, scenario, theta = 1.0, budget = budget, methods = Seq("METAM"))
      val res = run.results("METAM")
      println(s"candidates discovered: ${run.candidates.size}")
      println(f"METAM utility ${res.utility}%.3f in ${res.queriesUsed} queries")
      println("solution:")
      res.solution.foreach(c => println(s"  ${c.describe}"))
      val found = res.solution.map(_.table).count(scenario.groundTruthTables.contains)
      println(s"ground-truth augmentations in solution: $found/${res.solution.size}")
    } finally spark.stop()
  }
}
