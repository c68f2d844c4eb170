package perfbench

/** Order statistics for latency samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** First, second and third quartile, by the same "exclusive" method as
    * Python's `statistics.quantiles(xs, n=4)`.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.length >= 2, "quartiles need at least two samples")
    val s = xs.sorted
    val n = s.length
    val m = n + 1
    def q(i: Int): Double = {
      val j     = math.min(math.max(i * m / 4, 1), n - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4.0
    }
    (q(1), q(2), q(3))
  }

  /** The highest percentile that has at least `beyond` samples above it.
    *
    * @param value      the sample at that percentile
    * @param percentile share of samples at or below it, in percent
    * @param count      number of samples
    */
  final case class Tail(value: Double, percentile: Double, count: Int)

  val TailBeyond = 10

  /** None when there are too few samples for any percentile to have
    * `beyond` samples above it.
    */
  def tail(xs: Seq[Double], beyond: Int = TailBeyond): Option[Tail] = {
    val n = xs.length
    if (n <= beyond) None
    else {
      val s = xs.sorted
      val i = n - beyond - 1
      Some(Tail(s(i), 100.0 * (i + 1) / n, n))
    }
  }
}
