package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, start: Long, end: Long) = Span(id, parent, 0L, s"s$id", start, end)

  test("self time subtracts direct children only") {
    val spans = Seq(
      span(0, -1, 0, 100),
      span(1, 0, 10, 40),
      span(2, 1, 15, 25), // grandchild: already inside span 1
      span(3, 0, 50, 70),
    )
    val self = Tracer.selfTimes(spans)
    assert(self(0) == 100 - 30 - 20)
    assert(self(1) == 30 - 10)
    assert(self(2) == 10)
    assert(self(3) == 20)
  }

  test("overlapping children are counted once, clipped to the parent") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 60), span(2, 0, 40, 120))
    assert(Tracer.selfTimes(spans)(0) == 10)
  }

  test("tracer records nesting, op id and order of completion") {
    val t = new Tracer(true)
    t.opId = 7
    val r = t.span("outer") { t.span("inner")(1 + 1) }
    assert(r == 2)
    val Seq(inner, outer) = t.all
    assert(inner.name == "inner" && outer.name == "outer")
    assert(inner.parent == outer.id && outer.parent == -1)
    assert(inner.opId == 7 && outer.opId == 7)
    assert(outer.startNs <= inner.startNs && inner.endNs <= outer.endNs)
    val self = Tracer.selfTimes(t.all)
    assert(self(outer.id) == outer.durNs - inner.durNs)
  }

  test("a span closes when its body throws") {
    val t = new Tracer(true)
    intercept[IllegalStateException](t.span("boom")(throw new IllegalStateException("x")))
    assert(t.all.map(_.name) == Seq("boom"))
    t.span("next")(())
    assert(t.all.last.parent == -1)
  }

  test("a disabled tracer records nothing") {
    val t = new Tracer(false)
    assert(t.span("x")(3) == 3)
    assert(t.all.isEmpty)
  }
}
