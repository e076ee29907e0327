package repro.client

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import repro.core._
import repro.json.JsonParser
import repro.workload.JsonDatasets
import ClientFilterSpec.Obj

/** Client-side raw-string predicate evaluation (paper §IV).
  *
  * The load-bearing property: string matching may report false positives
  * but NEVER false negatives w.r.t. typed evaluation on the parsed object.
  */
class ClientFilterSpec extends AnyFunSuite with PropSupport {

  private val line = """{"name":"Bob","age":22,"text":"really delicious food","email":"b@x.com","score":10}"""

  // ---- atom matching on the Table I examples ----

  test("exact match finds the quoted value") {
    assert(ClientFilter.matchAtom(line, ExactMatch("name", "Bob")))
    assert(!ClientFilter.matchAtom(line, ExactMatch("name", "Alice")))
  }

  test("exact match does not fire on unquoted occurrences") {
    // "delicious" appears but not as a quoted JSON string value
    assert(!ClientFilter.matchAtom(line, ExactMatch("text", "delicious")))
  }

  test("substring match fires anywhere in the object") {
    assert(ClientFilter.matchAtom(line, SubstringMatch("text", "delicious")))
    assert(!ClientFilter.matchAtom(line, SubstringMatch("text", "terrible")))
  }

  test("key presence fires on the quoted key") {
    assert(ClientFilter.matchAtom(line, KeyPresence("email")))
    assert(!ClientFilter.matchAtom(line, KeyPresence("phone")))
  }

  test("key-value match finds the literal between key and delimiter") {
    assert(ClientFilter.matchAtom(line, KeyValueMatch("age", "22")))
    assert(!ClientFilter.matchAtom(line, KeyValueMatch("age", "23")))
  }

  test("key-value match at end of object (closing brace delimiter)") {
    assert(ClientFilter.matchAtom(line, KeyValueMatch("score", "10")))
  }

  test("key-value match does not cross the field delimiter") {
    // "22" belongs to age; the literal search window for "name" ends at ','
    assert(!ClientFilter.matchAtom(line, KeyValueMatch("name", "22")))
  }

  test("key-value false positive: substring of the value matches (allowed)") {
    assert(ClientFilter.matchAtom(line, KeyValueMatch("age", "2")),
      "client-side matching is allowed to over-approximate")
  }

  test("exact-match false positive across keys is possible (paper example)") {
    val l = """{"a":"Bob","name":"Zed"}"""
    assert(ClientFilter.matchAtom(l, ExactMatch("name", "Bob")),
      "pattern \"Bob\" found under another key — allowed false positive")
  }

  test("clause matching is an OR over atoms") {
    val clause = Clause(ExactMatch("name", "Alice"), KeyValueMatch("age", "22"))
    assert(ClientFilter.matchClause(line, clause))
    assert(!ClientFilter.matchClause(line, Clause(ExactMatch("name", "Alice"), KeyValueMatch("age", "9"))))
  }

  // ---- values the JSON text spells differently from the pattern ----

  /** The typed predicate holds on `line`, so the client must set the bit. */
  private def assertNoFalseNegative(line: String, atom: Atom): Unit = {
    assert(atom.evalParsed(JsonParser.parseObject(line)))
    assert(ClientFilter.matchAtom(line, atom), s"FALSE NEGATIVE for $atom on $line")
  }

  test("exact match holds on an escaped quote in the value") {
    assertNoFalseNegative("""{"name":"a\"b"}""", ExactMatch("name", "a\"b"))
  }

  test("key-value match holds on a number written with an exponent") {
    assertNoFalseNegative("""{"age":1e1}""", KeyValueMatch("age", "10"))
  }

  test("substring match holds on escaped slashes") {
    assertNoFalseNegative("""{"url":"http:\/\/x.com"}""", SubstringMatch("url", "://x"))
  }

  // ---- chunking ----

  test("chunking partitions lines in order") {
    val lines  = Vector.tabulate(10)(i => s"""{"i":$i}""")
    val chunks = ClientFilter.chunk(lines, 4)
    assert(chunks.map(_.size) === Vector(4, 4, 2))
    assert(chunks.flatten === lines)
  }

  test("chunk size must be positive") {
    intercept[IllegalArgumentException](ClientFilter.chunk(Vector("x"), 0))
  }

  test("chunkBits produces one bit-vector per predicate, one bit per line") {
    val lines = Vector(
      """{"stars":5,"text":"ok"}""",
      """{"stars":3,"text":"delicious"}""",
      """{"stars":5,"text":"delicious"}""")
    val bits = ClientFilter.chunkBits(lines, Seq(
      0 -> Clause(KeyValueMatch("stars", "5")),
      1 -> Clause(SubstringMatch("text", "delicious"))))
    assert(bits(0).toBooleans === Vector(true, false, true))
    assert(bits(1).toBooleans === Vector(false, true, true))
  }

  test("prefilter measures elapsed time and covers all chunks") {
    val lines  = Vector.tabulate(100)(i => s"""{"v":$i}""")
    val chunks = ClientFilter.chunk(lines, 30)
    val res    = ClientFilter.prefilter(chunks, Seq(0 -> Clause(KeyValueMatch("v", "7"))))
    assert(res.bitsPerChunk.size === chunks.size)
    assert(res.elapsedNanos > 0)
    // substring semantics over-approximate: 7, 17, 27, …, 70-79 all contain "7"
    val expected = (0 until 100).count(_.toString.contains("7"))
    assert(res.bitsPerChunk.map(_(0).cardinality).sum === expected)
  }

  // ---- THE property: no false negatives ----

  private def noFalseNegative(lines: Seq[String], atoms: Seq[Atom]): Unit =
    lines.foreach { l =>
      val obj = JsonParser.parseObject(l)
      atoms.foreach { a =>
        if (a.evalParsed(obj))
          assert(ClientFilter.matchAtom(l, a),
            s"FALSE NEGATIVE: typed says true, client says false for $a on $l")
      }
    }

  test("no false negatives on the yelp generator (all pool atom kinds)") {
    val ds = JsonDatasets.yelp(400, seed = 5)
    val atoms = Seq[Atom](
      KeyValueMatch("stars", "5"), KeyValueMatch("useful", "0"), KeyValueMatch("useful", "12"),
      ExactMatch("user_id", "u007"), SubstringMatch("text", "delicious"),
      SubstringMatch("date", "-07-"), SubstringMatch("date", "2010"), KeyPresence("funny"))
    noFalseNegative(ds.lines, atoms)
  }

  test("no false negatives on the winlog generator") {
    val ds = JsonDatasets.winlog(400, seed = 6)
    val atoms = Seq[Atom](
      SubstringMatch("info", "kw003"), SubstringMatch("ts", "-03-"),
      SubstringMatch("ts", ":30:"), ExactMatch("level", "Error"), KeyPresence("component"))
    noFalseNegative(ds.lines, atoms)
  }

  test("no false negatives on the ycsb generator") {
    val ds = JsonDatasets.ycsb(400, seed = 7)
    val atoms = Seq[Atom](
      KeyValueMatch("isActive", "true"), KeyValueMatch("linear_score", "0"),
      ExactMatch("phone_country", "US"), ExactMatch("age_group", "adult"),
      SubstringMatch("url_domain", "com"), SubstringMatch("email", "@gmail"),
      KeyValueMatch("age_by_group", "37"))
    noFalseNegative(ds.lines, atoms)
  }

  /** Text that may hold a quote, a slash or a non-ASCII letter, which [[json]] escapes. */
  private val textGen: Gen[String] = for {
    s <- Gen.alphaStr.map(_.take(8)).suchThat(_.nonEmpty)
    c <- Gen.oneOf("", "\"", "/", "\u00e9")
    i <- Gen.choose(0, s.length)
  } yield s.patch(i, c, 0)

  /** A JSON string literal for `s`, escaping quotes, slashes and non-ASCII characters. */
  private def json(s: String): String = s.flatMap {
    case '"'           => "\\\""
    case '/'           => "\\/"
    case c if c > '~'  => f"\\u${c.toInt}%04x"
    case c             => c.toString
  }.mkString("\"", "", "\"")

  /** `o` as one line whose note is `note`. */
  private def line(o: Obj, note: String): String =
    s"""{${o.nested}"name"${o.colon}${json(o.name)}${o.comma}"note"${o.colon}${json(note)}${o.comma}"age"${o.colon}${o.ageJson}}"""

  private val wsGen: Gen[String] = Gen.oneOf("", " ", "\t", " \t ")

  private val objGen: Gen[Obj] = for {
    name    <- textGen
    word    <- textGen.map(_.take(6))
    age     <- Gen.choose(0L, 120L)
    ageJson <- Gen.oneOf(age.toString, s"${age}e0", s"${age / 10.0}E1")
    colon   <- Gen.zip(wsGen, wsGen).map { case (a, b) => s"$a:$b" }
    comma   <- Gen.zip(wsGen, wsGen).map { case (a, b) => s"$a,$b" }
    other   <- Gen.choose(0L, 120L)
    key      = s""""o"$colon{"age"$colon$other}$comma"""
    literal  = s""""tags"$colon[$age]$comma"""
    nested  <- Gen.oneOf("", key, literal, key + literal)
  } yield Obj(name, word, age, ageJson, colon, comma, nested)

  test("property: no false negatives on randomly generated flat objects") {
    forAllSamples(Gen.listOfN(5, objGen), n = 60) { objs =>
      val lines = objs.map(o => line(o, s"some ${o.word} here"))
      val atoms = objs.flatMap { o =>
        Seq[Atom](ExactMatch("name", o.name), SubstringMatch("note", o.word),
          KeyValueMatch("age", o.age.toString), KeyPresence("note"))
      }
      noFalseNegative(lines, atoms)
    }
  }

  test("property: clause-level no false negatives under disjunction") {
    forAllSamples(Gen.listOfN(4, objGen), n = 40) { objs =>
      val lines = objs.map(o => line(o, o.word))
      val clause = Clause(
        ExactMatch("name", objs.head.name),
        KeyValueMatch("age", objs.last.age.toString))
      lines.foreach { l =>
        val obj = JsonParser.parseObject(l)
        if (clause.evalParsed(obj)) assert(ClientFilter.matchClause(l, clause))
      }
    }
  }
}

private object ClientFilterSpec {
  /** Name, note word and age, and how the line spells them: the age plain or
    * with an exponent, whitespace around `:` and `,`, and an optional nested
    * value before the top-level keys that holds the key `age` or the age's literal.
    */
  final case class Obj(name: String, word: String, age: Long, ageJson: String,
                       colon: String, comma: String, nested: String)
}
