package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler._

/** Job and task counts of a Spark application, from its listener bus. */
final class SparkCounters extends SparkListener {
  val jobs, jobsEnded, tasks, taskBusyMs, shuffleWriteBytes, jobWallMs = new AtomicLong
  private val started = new ConcurrentHashMap[Int, java.lang.Long]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    started.put(e.jobId, e.time)
    jobs.incrementAndGet()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    Option(started.remove(e.jobId)).foreach(t => jobWallMs.addAndGet(e.time - t))
    jobsEnded.incrementAndGet()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      taskBusyMs.addAndGet(m.executorRunTime)
      shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  /** Waits (up to 10 s) until the bus has delivered every job's end. */
  def await(): Unit = {
    val deadline = System.nanoTime() + 10_000_000_000L
    while (jobsEnded.get() < jobs.get() && System.nanoTime() < deadline) Thread.sleep(20)
  }
}

/** Garbage-collection time and peak heap of this JVM. */
object Jvm {
  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def resetPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  def peakHeapMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
}
