package repro.util

/** A string column parsed as doubles, in primitive storage: `values(i)`
  * holds row `i`'s number where `defined(i)`; elsewhere the cell was null
  * or did not parse. Built once per column and read by every task
  * evaluation; [[Stats.pearson]] reads the arrays directly.
  */
final class NumericColumn private (
    private[util] val values: Array[Double],
    private[util] val defined: Array[Boolean],
    val nonNull: Int,
) {
  /** Number of entries that parsed. */
  val count: Int = defined.count(identity)

  def length: Int = values.length

  def isDefined(i: Int): Boolean = defined(i)

  def apply(i: Int): Option[Double] = if (defined(i)) Some(values(i)) else None

  def toSeq: Seq[Option[Double]] = Seq.tabulate(length)(apply)

  /** Every row's value, `default` where it did not parse. */
  def orElse(default: Double): Array[Double] = {
    val out = values.clone()
    var i = 0
    while (i < out.length) { if (!defined(i)) out(i) = default; i += 1 }
    out
  }

  /** The parsed entries, in row order. */
  def parsedValues: Array[Double] = {
    val out = new Array[Double](count)
    var i = 0; var j = 0
    while (i < values.length) {
      if (defined(i)) { out(j) = values(i); j += 1 }
      i += 1
    }
    out
  }
}

object NumericColumn {

  /** The one parse rule for numeric cells: what `String.toDoubleOption`
    * accepts. Tasks read it through a column's view; the profiler applies
    * it to the Γ cells of its sample rows.
    */
  def parse(cell: Option[String]): Option[Double] = cell.flatMap(_.toDoubleOption)

  /** Parse every cell of a string column with [[parse]]. */
  def of(cells: Array[Option[String]]): NumericColumn =
    build(cells.length, i => parse(cells(i)), cells.count(_.isDefined))

  /** A view of already-parsed entries; every defined entry counts as non-null. */
  def fromOptions(xs: Array[Option[Double]]): NumericColumn =
    build(xs.length, xs(_), xs.count(_.isDefined))

  private def build(n: Int, entry: Int => Option[Double], nonNull: Int): NumericColumn = {
    val values = new Array[Double](n)
    val defined = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      entry(i) match {
        case Some(v) => values(i) = v; defined(i) = true
        case None => ()
      }
      i += 1
    }
    new NumericColumn(values, defined, nonNull)
  }
}
