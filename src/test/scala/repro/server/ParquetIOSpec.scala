package repro.server

import java.nio.file.Files

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.unsafe.types.UTF8String
import org.scalatest.funsuite.AnyFunSuite

import repro.datasource.CiaoDataSource
import repro.json.JsonParser
import TableSchema._

/** Parquet chunk IO through Spark's writer and vectorized reader:
  * write/read round-trips, nulls, ordering across batches.
  */
class ParquetIOSpec extends AnyFunSuite {

  private val schema = TableSchema(Vector(
    Col("s", CString), Col("l", CLong), Col("d", CDouble), Col("b", CBool)))
  private val types = CiaoDataSource.sparkSchema(schema).map(_.dataType)

  private def tmpFile(): String =
    Files.createTempDirectory("pio").resolve("c.parquet").toString

  private def row(vs: Any*): InternalRow =
    new GenericInternalRow(vs.map {
      case s: String => UTF8String.fromString(s)
      case other     => other
    }.toArray)

  private def values(r: InternalRow): Seq[Any] = r.toSeq(types)

  test("round-trips typed rows in order") {
    val rows = Vector(
      row("alpha", 1L, 1.5, true),
      row("beta", -7L, 0.0, false),
      row("gamma", 99L, -2.25, true))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val got = ParquetIO.readChunk(path, schema)
    assert(got.map(values) === rows.map(values))
  }

  test("round-trips nulls in any column") {
    val rows = Vector(
      row(null, 1L, null, true),
      row("x", null, 2.0, null),
      row(null, null, null, null))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val got = ParquetIO.readChunk(path, schema)
    assert(got.map(values) === rows.map(values))
  }

  test("round-trips an empty chunk") {
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, Vector.empty)
    assert(ParquetIO.readChunk(path, schema).isEmpty)
  }

  test("round-trips unicode and special characters in strings") {
    val rows = Vector(
      row("héllo wörld ✓", 0L, 0.0, true),
      row("quotes \" and \\ slashes", 0L, 0.0, false))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val got = ParquetIO.readChunk(path, schema)
    assert(got.map(_.getUTF8String(0).toString) === Vector("héllo wörld ✓", "quotes \" and \\ slashes"))
  }

  test("multi-batch read returns distinct rows in write order") {
    val n    = 10000 // more than two vectorized batches of 4096 rows
    val rows = Vector.tabulate(n)(i => row(s"row$i", i.toLong, i / 2.0, i % 2 == 0))
    val path = tmpFile()
    ParquetIO.writeChunk(path, schema, rows)
    val got = ParquetIO.readChunk(path, schema)
    assert(got.size === n)
    assert(got.map(_.getLong(1)) === Vector.tabulate(n)(_.toLong))
    assert(got.map(values) === rows.map(values))
  }

  test("extractRow maps JSON fields by name and type") {
    val obj = JsonParser.parseObject("""{"l":42,"s":"hi","b":false,"d":2.5,"extra":1}""")
    val row = TableSchema.extractRow(schema, obj)
    assert(values(row) === Seq(UTF8String.fromString("hi"), 42L, 2.5, false))
  }

  test("extractRow nulls missing and type-mismatched fields") {
    val obj = TableSchema.extractRow(schema, JsonParser.parseObject("""{"s":5,"l":"x","d":true}"""))
    assert(values(obj) === Seq(null, null, null, null))
  }
}
