package repro.tasks

import repro.lake.LocalTable

/** A downstream task (§II-B): a black box from a dataset to a utility
  * score in [0,1] (Definition 5). Implementations must be deterministic —
  * the search algorithms assume re-querying the same dataset returns the
  * same utility.
  */
trait Task {
  def name: String

  /** Utility of the (augmented) dataset. */
  def utility(table: LocalTable): Double
}
