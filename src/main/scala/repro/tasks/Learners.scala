package repro.tasks

import scala.util.Random

import repro.util.{NumericColumn, Stats}

/** Deterministic in-memory learners backing the predictive tasks.
  *
  * The paper trains scikit-learn random forests / AutoML pipelines; the
  * search only observes the resulting utility scalar, so any deterministic
  * learner with the same qualitative behaviour (utility rises when a
  * predictive column is added, is flat for irrelevant ones) preserves the
  * experiment. Missing values (failed joins) are mean-imputed.
  */
object Learners {

  /** Dense design matrix from numeric feature columns with mean
    * imputation for missing entries (failed joins).
    */
  def designMatrix(features: Vector[NumericColumn]): Array[Array[Double]] = {
    val n = if (features.isEmpty) 0 else features.head.length
    val filled = features.map { col =>
      val present = col.parsedValues
      col.orElse(if (present.isEmpty) 0.0 else present.sum / present.length)
    }
    Array.tabulate(n)(i => Array.tabulate(filled.length)(j => filled(j)(i)))
  }

  /** Deterministic train/validation split by row-index hash. */
  def split(n: Int, validFrac: Double, seed: Long): (Array[Int], Array[Int]) = {
    val rnd = new Random(seed)
    val shuffled = rnd.shuffle((0 until n).toVector)
    val nValid = math.max(1, (n * validFrac).toInt)
    (shuffled.drop(nValid).toArray.sorted, shuffled.take(nValid).toArray.sorted)
  }

  // ---------------------------------------------------------------- forest

  /** One node of a depth-bounded CART tree. */
  sealed trait Node
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** A bagged ensemble of depth-bounded variance-reduction trees — the
    * random-forest-lite used by classification ([0,1] targets, majority
    * leaf) and regression (mean leaf) tasks.
    */
  final case class Forest(trees: Vector[Node]) {
    def predictRow(x: Array[Double]): Double = {
      var s = 0.0
      trees.foreach { t => s += eval(t, x) }
      s / trees.length
    }

    private def eval(node: Node, x: Array[Double]): Double = node match {
      case Leaf(v) => v
      case Split(f, thr, l, r) => if (x(f) <= thr) eval(l, x) else eval(r, x)
    }
  }

  private val NTrees = 12
  private val MaxDepth = 3
  private val MinLeaf = 5
  private val FeatureFrac = 0.7 // share of the features each tree may split on

  /** A forest of [[NTrees]] trees, each grown on a bootstrap sample of the
    * rows drawn with `seed`.
    */
  def trainForest(x: Array[Array[Double]], y: Array[Double], seed: Long): Forest = {
    require(x.length == y.length && x.nonEmpty, "empty or mismatched training data")
    val nFeat = x.head.length
    val trees = (0 until NTrees).map { t =>
      val rnd = new Random(seed * 1013904223L + t)
      val rows = Array.fill(x.length)(rnd.nextInt(x.length))
      val feats = rnd
        .shuffle((0 until nFeat).toVector)
        .take(math.max(1, math.ceil(nFeat * FeatureFrac).toInt))
      grow(x, y, rows, feats, depth = 0)
    }.toVector
    Forest(trees)
  }

  private def grow(
      x: Array[Array[Double]], y: Array[Double],
      rows: Array[Int], feats: Vector[Int],
      depth: Int,
  ): Node = {
    val ys = rows.map(y)
    val meanY = Stats.mean(ys)
    if (depth >= MaxDepth || rows.length < 2 * MinLeaf || Stats.std(ys) < 1e-9)
      return Leaf(meanY)

    // Best split over quartile thresholds of each candidate feature.
    var best: Option[(Int, Double, Double)] = None // (feature, threshold, score)
    val parentSse = ys.map(v => (v - meanY) * (v - meanY)).sum
    feats.foreach { f =>
      val vals = rows.map(i => x(i)(f)).sorted
      val thresholds = Vector(0.25, 0.5, 0.75).map(q => vals(math.min(vals.length - 1, (q * vals.length).toInt))).distinct
      thresholds.foreach { thr =>
        val (l, r) = rows.partition(i => x(i)(f) <= thr)
        if (l.length >= MinLeaf && r.length >= MinLeaf) {
          val ml = Stats.mean(l.map(y)); val mr = Stats.mean(r.map(y))
          val sse = l.map(i => (y(i) - ml) * (y(i) - ml)).sum + r.map(i => (y(i) - mr) * (y(i) - mr)).sum
          val gain = parentSse - sse
          if (best.forall(_._3 < gain) && gain > 1e-12) best = Some((f, thr, gain))
        }
      }
    }
    best match {
      case None => Leaf(meanY)
      case Some((f, thr, _)) =>
        val (l, r) = rows.partition(i => x(i)(f) <= thr)
        Split(f, thr, grow(x, y, l, feats, depth + 1), grow(x, y, r, feats, depth + 1))
    }
  }
}
