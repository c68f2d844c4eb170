package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. Times are `System.nanoTime` values. */
final case class Span(id: Int, parent: Int, opId: Long, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory spans around the benchmark's calls into each layer.
  *
  * Spans are opened on the driver thread only; a span's parent is the span
  * open when it started (-1 at top level). Nothing is written until the run
  * ends. When disabled, `span` only runs its body.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  var opId: Long = -1

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val start = System.nanoTime()
      try body
      finally {
        val end = System.nanoTime()
        stack = stack.tail
        spans += Span(id, parent, opId, name, start, end)
      }
    }

  def all: Seq[Span] = spans.toSeq
}

object Tracer {

  /** Self time of each span: its duration minus the part of its interval
    * that its direct children cover (children may overlap each other).
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans.map { s =>
      val kids    = children.getOrElse(s.id, Seq.empty).sortBy(_.startNs)
      var covered = 0L
      var reach   = s.startNs
      kids.foreach { k =>
        val lo = math.max(k.startNs, reach)
        val hi = math.min(k.endNs, s.endNs)
        if (hi > lo) { covered += hi - lo; reach = hi }
      }
      s.id -> (s.durNs - covered)
    }.toMap
  }
}
