package repro.json

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropSupport

/** Unit + property tests for the minimal JSON parser substrate. */
class JsonParserSpec extends AnyFunSuite with PropSupport {

  test("parses an empty object") {
    assert(JsonParser.parse("{}") === JObj(Vector.empty))
  }

  test("parses an empty array") {
    assert(JsonParser.parse("[]") === JArr(Vector.empty))
  }

  test("parses flat object with all scalar types") {
    val v = JsonParser.parseObject("""{"a":"x","b":12,"c":-3.5,"d":true,"e":false,"f":null}""")
    assert(v("a") === JStr("x"))
    assert(v("b") === JNum("12"))
    assert(v("c") === JNum("-3.5"))
    assert(v("d") === JBool(true))
    assert(v("e") === JBool(false))
    assert(v("f") === JNull)
  }

  test("parses nested objects") {
    val v = JsonParser.parseObject("""{"a":{"b":{"c":1}}}""")
    assert(v("a").asInstanceOf[JObj]("b").asInstanceOf[JObj]("c") === JNum("1"))
  }

  test("parses arrays of mixed values") {
    val v = JsonParser.parse("""[1,"two",true,null,{"k":2},[3]]""").asInstanceOf[JArr]
    assert(v.items.size === 6)
    assert(v.items(4).asInstanceOf[JObj]("k") === JNum("2"))
  }

  test("preserves field order in objects") {
    val v = JsonParser.parseObject("""{"z":1,"a":2,"m":3}""")
    assert(v.fields.map(_._1) === Vector("z", "a", "m"))
  }

  test("handles whitespace everywhere") {
    val v = JsonParser.parse(" { \"a\" :\t[ 1 ,\n 2 ] } ").asInstanceOf[JObj]
    assert(v("a") === JArr(Vector(JNum("1"), JNum("2"))))
  }

  test("parses escape sequences") {
    val v = JsonParser.parse("\"a\\\"b\\\\c\\nd\\te\\u0041\"").asInstanceOf[JStr]
    assert(v.value === "a\"b\\c\nd\teA")
  }

  test("parses forward-slash and control escapes") {
    assert(JsonParser.parse("\"\\/\\b\\f\\r\"") === JStr("/\b\f\r"))
  }

  test("number lexemes are preserved exactly") {
    assert(JsonParser.parse("2.40").asInstanceOf[JNum].raw === "2.40")
    assert(JsonParser.parse("24e-1").asInstanceOf[JNum].raw === "24e-1")
    assert(JsonParser.parse("2.40").asInstanceOf[JNum].toDouble === 2.4)
    assert(JsonParser.parse("24e-1").asInstanceOf[JNum].toDouble === 2.4)
  }

  test("parses negative and exponent numbers") {
    assert(JsonParser.parse("-12").asInstanceOf[JNum].toLong === -12L)
    assert(JsonParser.parse("1.5E+2").asInstanceOf[JNum].toDouble === 150.0)
  }

  test("rejects trailing garbage") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a":1} x"""))
  }

  test("rejects unterminated string") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("\"abc"))
  }

  test("rejects unterminated object and array") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a":1"""))
    intercept[JsonParser.JsonParseException](JsonParser.parse("[1,2"))
  }

  test("rejects bad literals") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("tru"))
    intercept[JsonParser.JsonParseException](JsonParser.parse("nul"))
  }

  test("rejects malformed numbers") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("-"))
    intercept[JsonParser.JsonParseException](JsonParser.parse("1."))
    intercept[JsonParser.JsonParseException](JsonParser.parse("1e"))
  }

  test("rejects missing colon and stray commas") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a" 1}"""))
    intercept[JsonParser.JsonParseException](JsonParser.parse("""{"a":1,}"""))
  }

  test("rejects raw control characters inside strings") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("\"a\nb\""))
  }

  test("parseObject rejects non-object documents") {
    intercept[JsonParser.JsonParseException](JsonParser.parseObject("[1]"))
  }

  test("bad \\u escape is rejected") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("\"\\uZZZZ\""))
  }

  test("rejects a number with a leading zero") {
    intercept[JsonParser.JsonParseException](JsonParser.parse("01"))
  }

  test("rejects a non-ASCII digit in a number") {
    // U+0660 ARABIC-INDIC DIGIT ZERO: a digit to Character.isDigit, not to JSON
    intercept[JsonParser.JsonParseException](JsonParser.parseObject("{\"age\":1\u0660}"))
  }

  test("deep nesting fails as a parse error, not a stack overflow") {
    val n = 200000
    intercept[JsonParser.JsonParseException](JsonParser.parse("[" * n + "]" * n))
  }

  private val jsonStringGen: Gen[String] =
    Gen.listOf(Gen.frequency(
      8 -> Gen.alphaNumChar,
      1 -> Gen.oneOf('"', '\\', '\n', '\t', ' '),
    )).map(_.mkString)

  test("property: quote/parse round-trips arbitrary strings") {
    forAllSamples(jsonStringGen) { s =>
      assert(JsonParser.parse(JsonValue.quote(s)) === JStr(s))
    }
  }

  private val flatObjGen: Gen[JObj] = {
    val fieldGen = for {
      k <- Gen.identifier.map(_.take(10)).suchThat(_.nonEmpty)
      v <- Gen.oneOf[JsonValue](
        Gen.choose(-1000000L, 1000000L).map(n => JNum(n.toString)),
        jsonStringGen.map(JStr.apply),
        Gen.oneOf(JBool(true), JBool(false), JNull),
      )
    } yield (k, v)
    Gen.listOf(fieldGen).map(fs => JObj(fs.toVector.distinctBy(_._1)))
  }

  test("property: render/parse round-trips flat objects") {
    forAllSamples(flatObjGen) { o =>
      assert(JsonParser.parse(o.render) === o)
    }
  }

  test("property: render/parse round-trips nested structures") {
    forAllSamples2(flatObjGen, flatObjGen) { (a, b) =>
      val nested = JObj(Vector("inner" -> a, "arr" -> JArr(Vector(b, JNum("1")))))
      assert(JsonParser.parse(nested.render) === nested)
    }
  }
}
