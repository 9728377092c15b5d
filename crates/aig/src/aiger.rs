//! ASCII AIGER (`.aag`) serialisation.
//!
//! Only the combinational subset is supported (no latches), which is all the
//! EPFL arithmetic benchmarks use. The format is the classic
//! `aag M I L O A` header followed by input, output and and-gate lines.

use std::io::{BufRead, BufReader, Read, Write};

use crate::error::ParseAagError;
use crate::{Aig, Lit};

impl Aig {
    /// Serialises the AIG to an ASCII AIGER (`.aag`) stream.
    ///
    /// Note that a `&mut` reference can be passed as the writer.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure from the writer.
    pub fn write_aag<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let m = self.num_nodes() - 1;
        writeln!(
            w,
            "aag {} {} 0 {} {}",
            m,
            self.num_pis(),
            self.num_pos(),
            self.num_ands()
        )?;
        for i in 0..self.num_pis() {
            writeln!(w, "{}", self.pi(i).raw())?;
        }
        for po in self.pos() {
            writeln!(w, "{}", po.raw())?;
        }
        for var in self.ands() {
            writeln!(
                w,
                "{} {} {}",
                Lit::from_var(var, false).raw(),
                self.fanin0(var).raw(),
                self.fanin1(var).raw()
            )?;
        }
        if !self.name().is_empty() {
            writeln!(w, "c")?;
            writeln!(w, "{}", self.name())?;
        }
        Ok(())
    }

    /// Parses an ASCII AIGER (`.aag`) stream into an AIG.
    ///
    /// The gates are restrashed on the way in, so the parsed AIG may have
    /// fewer gates than the file if the file contained structural duplicates.
    /// A `&mut` reference can be passed as the reader.
    ///
    /// The header is validated before anything is allocated from it (see
    /// [`AIGER_MAX_VARS`]), and every table grows only as the lines it
    /// holds are read, so no input can make the reader panic or allocate
    /// without bound.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseAagError`] describing the first syntactic or
    /// structural problem found.
    pub fn read_aag<R: Read>(r: R) -> Result<Aig, ParseAagError> {
        let reader = BufReader::new(r);
        let mut lines = reader.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| ParseAagError::BadHeader(String::from("<empty stream>")))?;
        let Header { i, o, a, .. } = Header::parse(&header?, "aag")?;
        // Variables are numbered 1..=i + a (the header guarantees it fits).
        let max_var = i + a;

        let next_line = |lines: &mut dyn Iterator<Item = (usize, std::io::Result<String>)>|
         -> Result<(usize, String), ParseAagError> {
            let (n, line) = lines.next().ok_or(ParseAagError::BadLine {
                line_number: 0,
                message: String::from("unexpected end of file"),
            })?;
            Ok((n + 1, line?))
        };

        // Map from file variable index to our literal, grown as variables
        // are defined.
        let mut map: Vec<Option<Lit>> = vec![Some(Lit::FALSE)];
        for k in 0..i {
            let (n, line) = next_line(&mut lines)?;
            let raw: u32 = line.trim().parse().map_err(|_| ParseAagError::BadLine {
                line_number: n,
                message: format!("bad input literal {line:?}"),
            })?;
            let var = (raw >> 1) as usize;
            if raw & 1 == 1 || var == 0 || var > max_var {
                return Err(ParseAagError::BadLine {
                    line_number: n,
                    message: format!("invalid input literal {raw}"),
                });
            }
            define(&mut map, var, Lit::from_var(1 + k, false));
        }
        // Every input line has been read: the arena may now be sized.
        let mut aig = Aig::new(i);

        let mut output_raws = Vec::new();
        for _ in 0..o {
            let (n, line) = next_line(&mut lines)?;
            let raw: u32 = line.trim().parse().map_err(|_| ParseAagError::BadLine {
                line_number: n,
                message: format!("bad output literal {line:?}"),
            })?;
            output_raws.push(raw);
        }

        for _ in 0..a {
            let (n, line) = next_line(&mut lines)?;
            let mut parts = line.split_whitespace();
            let mut field = || -> Result<u32, ParseAagError> {
                parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ParseAagError::BadLine {
                        line_number: n,
                        message: format!("bad and-gate line {line:?}"),
                    })
            };
            let (lhs, rhs0, rhs1) = (field()?, field()?, field()?);
            if lhs & 1 == 1 {
                return Err(ParseAagError::BadLine {
                    line_number: n,
                    message: format!("and-gate output literal {lhs} is complemented"),
                });
            }
            let lv = (lhs >> 1) as usize;
            if lv > max_var || map.get(lv).copied().flatten().is_some() {
                return Err(ParseAagError::BadLine {
                    line_number: n,
                    message: format!("and-gate redefines variable {lv}"),
                });
            }
            let fan = |raw: u32| -> Result<Lit, ParseAagError> {
                let v = (raw >> 1) as usize;
                let base = map
                    .get(v)
                    .copied()
                    .flatten()
                    .ok_or(ParseAagError::NotTopological { gate_literal: lhs })?;
                Ok(base.xor_complement(raw & 1 == 1))
            };
            let (f0, f1) = (fan(rhs0)?, fan(rhs1)?);
            let gate = aig.and(f0, f1);
            define(&mut map, lv, gate);
        }

        for raw in output_raws {
            let v = (raw >> 1) as usize;
            let base = map
                .get(v)
                .copied()
                .flatten()
                .ok_or(ParseAagError::UndefinedLiteral(raw))?;
            aig.add_po(base.xor_complement(raw & 1 == 1));
        }

        // Optional comment section: first comment line becomes the name.
        let mut saw_comment_marker = false;
        for (_, line) in lines {
            let line = line?;
            if saw_comment_marker {
                aig.set_name(line.trim().to_string());
                break;
            }
            if line.trim() == "c" {
                saw_comment_marker = true;
            }
        }
        Ok(aig)
    }
}

/// Sets `map[var]`, growing the map to reach it.
fn define(map: &mut Vec<Option<Lit>>, var: usize, lit: Lit) {
    if map.len() <= var {
        map.resize(var + 1, None);
    }
    map[var] = Some(lit);
}

/// The largest maximum variable index `M` the AIGER readers accept.
///
/// Both readers reject a larger `M` with [`ParseAagError::BadHeader`]
/// before allocating anything. 2^24 is about 78 times the largest EPFL
/// benchmark (`hyp`, with about 214k AND gates); an AIG that wide needs a
/// 128 MiB node arena.
pub const AIGER_MAX_VARS: usize = 1 << 24;

/// The validated fields of an AIGER header line `magic M I L O A`.
pub(crate) struct Header {
    pub(crate) m: usize,
    pub(crate) i: usize,
    pub(crate) o: usize,
    pub(crate) a: usize,
}

impl Header {
    /// Parses the header line with the given magic (`aag` or `aig`).
    ///
    /// Rejects latches, `M` above [`AIGER_MAX_VARS`], and `I + A > M`
    /// (every input and gate defines its own variable), so `I`, `A` and
    /// `I + A` are all bounded once this returns. `O` is not: outputs may
    /// repeat literals, so callers read them one line at a time.
    pub(crate) fn parse(line: &str, magic: &str) -> Result<Header, ParseAagError> {
        let bad = || ParseAagError::BadHeader(line.to_string());
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 6 || fields[0] != magic {
            return Err(bad());
        }
        let parse = |s: &str| -> Result<usize, ParseAagError> { s.parse().map_err(|_| bad()) };
        let (m, i, l, o, a) = (
            parse(fields[1])?,
            parse(fields[2])?,
            parse(fields[3])?,
            parse(fields[4])?,
            parse(fields[5])?,
        );
        if l != 0 {
            return Err(ParseAagError::LatchesUnsupported);
        }
        if m > AIGER_MAX_VARS || i.checked_add(a).is_none_or(|n| n > m) {
            return Err(bad());
        }
        Ok(Header { m, i, o, a })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aig() -> Aig {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let ab = aig.and(a, b);
        let f = aig.mux(c, ab, !a);
        aig.add_po(f);
        aig.add_po(!ab);
        aig.set_name("sample");
        aig
    }

    #[test]
    fn round_trip_preserves_function() {
        let aig = sample_aig();
        let mut buf = Vec::new();
        aig.write_aag(&mut buf).expect("write to vec cannot fail");
        let back = Aig::read_aag(buf.as_slice()).expect("round trip parses");
        assert_eq!(back.num_pis(), aig.num_pis());
        assert_eq!(back.num_pos(), aig.num_pos());
        assert_eq!(back.name(), "sample");
        assert_eq!(back.simulate_exhaustive(), aig.simulate_exhaustive());
        back.check().expect("parsed AIG is valid");
    }

    #[test]
    fn parses_reference_example() {
        // The canonical and-gate example from the AIGER docs: o = a & b.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let aig = Aig::read_aag(text.as_bytes()).expect("valid aag");
        assert_eq!(aig.num_pis(), 2);
        assert_eq!(aig.num_ands(), 1);
        assert_eq!(aig.simulate_exhaustive()[0][0], 0b1000);
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 1 0 1 0 0\n2 3\n";
        assert!(matches!(
            Aig::read_aag(text.as_bytes()),
            Err(ParseAagError::LatchesUnsupported)
        ));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            Aig::read_aag("not an aag".as_bytes()),
            Err(ParseAagError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_hostile_headers_without_allocating() {
        for header in [
            "aag 0 0 0 0 18446744073709551615\n",
            "aag 0 18446744073709551615 0 0 0\n",
            "aag 18446744073709551615 1 0 0 18446744073709551614\n",
            "aag 16777217 0 0 0 0\n",
            "aag 2 3 0 0 0\n",
        ] {
            assert!(
                matches!(
                    Aig::read_aag(header.as_bytes()),
                    Err(ParseAagError::BadHeader(_))
                ),
                "{header:?}"
            );
        }
        // A huge output count is read line by line and fails at the end of
        // the stream.
        assert!(matches!(
            Aig::read_aag("aag 0 0 0 1000000000000000 0\n".as_bytes()),
            Err(ParseAagError::BadLine { .. })
        ));
    }

    #[test]
    fn accepts_sparse_variable_numbering() {
        // ASCII AIGER need not define variables in index order.
        let text = "aag 3 2 0 1 1\n6\n2\n4\n4 6 2\n";
        let aig = Aig::read_aag(text.as_bytes()).expect("valid aag");
        assert_eq!(aig.num_ands(), 1);
        assert_eq!(aig.simulate_exhaustive()[0][0], 0b1000);
    }

    #[test]
    fn rejects_forward_reference() {
        // Gate 6 uses literal 8 which is defined later.
        let text = "aag 4 2 0 1 2\n2\n4\n6\n6 8 2\n8 2 4\n";
        assert!(matches!(
            Aig::read_aag(text.as_bytes()),
            Err(ParseAagError::NotTopological { .. })
        ));
    }
}
