package repro.ciaobench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}

/** In-memory span recorder for the traced run.
  *
  * A span is recorded around each call the benchmark makes into a module's
  * public functions: its name (`<layer>.<step>`), start, end, the span that
  * caused it and the trace (one round, or the replay pass) it belongs to.
  * When disabled, [[span]] only evaluates its body, so the untraced run
  * executes exactly the same calls.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans  = ArrayBuffer.empty[Span]
  private var open   = List.empty[Int]
  private var trace  = 0

  /** Start a new trace; the spans recorded after it share its id. */
  def newTrace(): Int = { trace += 1; trace }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = spans.size
      val parent = open.headOption.getOrElse(-1)
      spans += Span(id, parent, trace, name, System.nanoTime(), -1L)
      open = id :: open
      try body
      finally {
        open = open.tail
        spans(id) = spans(id).copy(endNs = System.nanoTime())
      }
    }

  /** Total duration in ms of the spans named `name` in trace `t`. */
  def totalMs(t: Int, name: String): Double =
    spans.iterator.filter(s => s.trace == t && s.name == name).map(_.durNs).sum / 1e6

  /** Write every span as one JSON object per line. */
  def write(path: Path): Unit = {
    val lines = spans.map(s =>
      s"""{"id":${s.id},"parent":${s.parent},"trace":${s.trace},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    ()
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, trace: Int, name: String, startNs: Long, endNs: Long) {
    def durNs: Long = endNs - startNs
  }
}

/** Task totals from Spark's listener bus (the `spark` layer). */
final class TaskTotals extends SparkListener {
  private var tasks, runMs, cpuNs, gcMs = 0L

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    Option(e.taskMetrics).foreach { m =>
      runMs += m.executorRunTime
      cpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
    }
  }

  /** (tasks, task run ms, task CPU ms, GC ms) since the last call; resets. */
  def take(): (Long, Double, Double, Double) = synchronized {
    val out = (tasks, runMs.toDouble, cpuNs / 1e6, gcMs.toDouble)
    tasks = 0; runMs = 0; cpuNs = 0; gcMs = 0
    out
  }
}
