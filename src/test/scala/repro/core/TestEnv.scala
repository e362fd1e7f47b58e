package repro.core

import org.apache.spark.sql.SparkSession

import repro.lake.{Lake, LakeTable, LocalTable, TableMeta}
import repro.profile.Profiles
import repro.tasks.Task

/** Shared fixture for algorithm tests: n candidate tables with a fully
  * controllable set-function utility u(S ⊆ tables) — the adversarial /
  * synthetic utilities used to unit-test METAM, the baselines, and the
  * minimality pass without a real learner in the loop.
  */
object TestEnv {

  final case class Env(
      engine: AugmentEngine,
      cands: Vector[Candidate],
      profiles: Profiles,
      task: Task,
  ) {
    def util(budget: Int): CountingUtility = new CountingUtility(engine, task, budget)
  }

  /** Build an environment of `n` candidates.
    *
    * @param setUtility maps the set of augmented *table indices* to utility
    * @param profileOf  candidate index → profile vector (5-dim default:
    *                   uniform 0.5s)
    */
  def build(
      spark: SparkSession,
      n: Int,
      setUtility: Set[Int] => Double,
      profileOf: Int => Array[Double] = _ => Array.fill(5)(0.5),
  ): Env = {
    val keys = Array("a", "b", "c")
    val input = LakeTable(
      TableMeta("input", "src", Vector("key"), Vector.empty),
      Vector("key" -> keys.map(Option(_)), "t" -> Array(Some("1"), Some("0"), Some("1"))))
    val tables = (0 until n).map { i =>
      LakeTable(TableMeta(s"t$i", "src", Vector("key"), Vector.empty),
        Vector("key" -> keys.map(Option(_)), "v" -> Array(Some(s"$i"), Some(s"$i"), Some(s"$i"))))
    }.toVector
    val cands = (0 until n).map(i => Candidate(i, Vector(JoinEdge("key", s"t$i", "key")), "v")).toVector
    val profiles = Profiles(Vector("corr", "mi", "embed", "meta", "overlap"),
      (0 until n).map(i => i -> profileOf(i)).toMap)
    val task = new Task {
      def name = "set-function"
      def utility(t: LocalTable): Double = {
        val present = (0 until n).filter(i => t.columnNames.exists(_.contains(s"__t${i}__"))).toSet
        setUtility(present)
      }
    }
    Env(new AugmentEngine(spark, input, Lake(tables)), cands, profiles, task)
  }
}
