package perfbench

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.scalatest.funsuite.AnyFunSuite

/** BENCHMARK.json, the metric registry and the result line agree. */
class SchemaSpec extends AnyFunSuite {

  private val mapper = new ObjectMapper()

  private lazy val bench: JsonNode = {
    val p = Seq(Paths.get("..", "BENCHMARK.json"), Paths.get("BENCHMARK.json")).find(Files.exists(_))
      .getOrElse(fail("BENCHMARK.json not found"))
    mapper.readTree(Files.readString(p))
  }

  private def defs(key: String): Seq[MetricDef] =
    bench.get(key).elements().asScala.toSeq.map(m => MetricDef(m.get("name").asText, m.get("unit").asText, m.get("better").asText))

  test("BENCHMARK.json lists exactly the registry's metrics, units and directions") {
    assert(defs("end_to_end") == MetricDefs.endToEnd)
    assert(defs("per_layer") == MetricDefs.perLayer)
  }

  test("BENCHMARK.json lists the harness's workloads and its own directory") {
    assert(bench.fieldNames().asScala.toSet ==
      Set("command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"))
    assert(bench.get("workloads").elements().asScala.map(_.get("name").asText).toSeq == Workload.names)
    assert(bench.get("paths").elements().asScala.map(_.asText).toSeq == Seq("perfbench"))
  }

  test("end-to-end bounds are within the allowed range; setup_s has the largest") {
    val bounds = bench.get("end_to_end").elements().asScala.map(m => m.get("name").asText -> m.get("bound").asDouble).toMap
    assert(bounds.values.forall(b => b > 0 && b <= 0.25))
    assert(bounds("setup_s") == bounds.values.max)
  }

  test("metric names are unique") {
    val names = (MetricDefs.endToEnd ++ MetricDefs.perLayer).map(_.name)
    assert(names.distinct == names)
  }

  for (traced <- Seq(false, true)) test(s"result line has exactly correct, attempted, failed and metrics (trace=$traced)") {
    val metrics = MetricDefs.forMode(traced).zipWithIndex.map { case (d, i) => d.name -> (i + 0.25) }.toMap
    val line    = mapper.readTree(Main.result(correct = true, attempted = 12, failed = 0, metrics, traced))
    assert(line.fieldNames().asScala.toSet == Set("correct", "attempted", "failed", "metrics"))
    assert(line.get("correct").asBoolean && line.get("attempted").asInt == 12 && line.get("failed").asInt == 0)
    val m = line.get("metrics")
    assert(m.fieldNames().asScala.toSeq == MetricDefs.forMode(traced).map(_.name))
    MetricDefs.forMode(traced).foreach { d =>
      val v = m.get(d.name)
      assert(v.fieldNames().asScala.toSet == Set("value", "unit"))
      assert(v.get("unit").asText == d.unit)
      assert(v.get("value").asDouble == metrics(d.name))
    }
  }
}
