//! Additional interchange formats: binary AIGER (`.aig`), Graphviz DOT and
//! structural Verilog.

use std::io::{BufRead, BufReader, Read, Write};

use crate::aiger::Header;
use crate::error::ParseAagError;
use crate::{Aig, Lit};

impl Aig {
    /// Serialises the AIG in the binary AIGER (`.aig`) format.
    ///
    /// Binary AIGER requires inputs and AND gates to be consecutively
    /// numbered, which this arena layout already guarantees; fanin deltas
    /// are LEB128-style 7-bit encoded per the AIGER 1.9 specification.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure from the writer (which can be `&mut`).
    pub fn write_aig_binary<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let m = self.num_nodes() - 1;
        writeln!(
            w,
            "aig {} {} 0 {} {}",
            m,
            self.num_pis(),
            self.num_pos(),
            self.num_ands()
        )?;
        for po in self.pos() {
            writeln!(w, "{}", po.raw())?;
        }
        for var in self.ands() {
            let lhs = Lit::from_var(var, false).raw();
            let (mut f0, mut f1) = (self.fanin0(var).raw(), self.fanin1(var).raw());
            // AIGER binary stores (lhs − max) then (max − min).
            if f0 < f1 {
                std::mem::swap(&mut f0, &mut f1);
            }
            debug_assert!(lhs > f0);
            write_delta(&mut w, lhs - f0)?;
            write_delta(&mut w, f0 - f1)?;
        }
        if !self.name().is_empty() {
            writeln!(w, "c")?;
            writeln!(w, "{}", self.name())?;
        }
        Ok(())
    }

    /// Parses a binary AIGER (`.aig`) stream.
    ///
    /// The header is validated before anything is allocated from it (see
    /// [`AIGER_MAX_VARS`](crate::AIGER_MAX_VARS)). Inputs are implicit in this format, so the
    /// node arena is sized from `I`, which that bound caps; outputs and
    /// gates are stored only as their lines and bytes are read.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseAagError`] for syntactic problems; latches are
    /// unsupported (combinational circuits only).
    pub fn read_aig_binary<R: Read>(r: R) -> Result<Aig, ParseAagError> {
        let mut reader = BufReader::new(r);
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let Header { m, i, o, a } = Header::parse(&header, "aig")?;
        if m != i + a {
            return Err(ParseAagError::BadHeader(header));
        }
        let mut output_raws = Vec::new();
        for _ in 0..o {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let raw: u32 = line.trim().parse().map_err(|_| ParseAagError::BadLine {
                line_number: 0,
                message: format!("bad output literal {line:?}"),
            })?;
            output_raws.push(raw);
        }
        let mut aig = Aig::new(i);
        // Variables 0..=i are the constant and the inputs, mapped to
        // themselves; `gates[k]` is the literal of variable i + 1 + k.
        let mut gates: Vec<Lit> = Vec::new();
        let resolve = |gates: &[Lit], raw: u32| -> Option<Lit> {
            let v = (raw >> 1) as usize;
            let base = if v <= i {
                Lit::from_var(v, false)
            } else {
                *gates.get(v - i - 1)?
            };
            Some(base.xor_complement(raw & 1 == 1))
        };
        for k in 0..a {
            let lhs = Lit::from_var(i + 1 + k, false).raw();
            let d0 = read_delta(&mut reader)?;
            let d1 = read_delta(&mut reader)?;
            let f0 = lhs
                .checked_sub(d0)
                .ok_or(ParseAagError::UndefinedLiteral(lhs))?;
            let f1 = f0
                .checked_sub(d1)
                .ok_or(ParseAagError::UndefinedLiteral(lhs))?;
            let fan = |raw: u32| {
                resolve(&gates, raw).ok_or(ParseAagError::NotTopological { gate_literal: lhs })
            };
            let (a_lit, b_lit) = (fan(f0)?, fan(f1)?);
            gates.push(aig.and(a_lit, b_lit));
        }
        for raw in output_raws {
            let lit = resolve(&gates, raw).ok_or(ParseAagError::UndefinedLiteral(raw))?;
            aig.add_po(lit);
        }
        // Optional name from the comment section.
        let mut rest = String::new();
        reader.read_to_string(&mut rest)?;
        if let Some(name) = rest.lines().nth(1) {
            if rest.starts_with('c') {
                aig.set_name(name.trim().to_string());
            }
        }
        Ok(aig)
    }

    /// Emits the AIG as structural Verilog (one `assign` per gate).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the writer.
    pub fn write_verilog<W: Write>(&self, mut w: W, module: &str) -> std::io::Result<()> {
        write!(w, "module {module}(")?;
        for i in 0..self.num_pis() {
            write!(w, "i{i}, ")?;
        }
        for k in 0..self.num_pos() {
            write!(w, "o{k}{}", if k + 1 == self.num_pos() { "" } else { ", " })?;
        }
        writeln!(w, ");")?;
        for i in 0..self.num_pis() {
            writeln!(w, "  input i{i};")?;
        }
        for k in 0..self.num_pos() {
            writeln!(w, "  output o{k};")?;
        }
        let lit = |l: Lit| -> String {
            let base = if l.var() == 0 {
                String::from("1'b0")
            } else if self.is_pi(l.var()) {
                format!("i{}", l.var() - 1)
            } else {
                format!("n{}", l.var())
            };
            if l.is_complement() {
                format!("~{base}")
            } else {
                base
            }
        };
        for var in self.ands() {
            writeln!(w, "  wire n{var};")?;
            writeln!(
                w,
                "  assign n{var} = {} & {};",
                lit(self.fanin0(var)),
                lit(self.fanin1(var))
            )?;
        }
        for (k, po) in self.pos().iter().enumerate() {
            writeln!(w, "  assign o{k} = {};", lit(*po))?;
        }
        writeln!(w, "endmodule")?;
        Ok(())
    }
}

fn write_delta<W: Write>(w: &mut W, mut delta: u32) -> std::io::Result<()> {
    loop {
        let byte = (delta & 0x7F) as u8;
        delta >>= 7;
        if delta == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_delta<R: Read>(r: &mut R) -> Result<u32, ParseAagError> {
    let mut delta = 0u32;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        delta |= u32::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(delta);
        }
        shift += 7;
        if shift > 28 {
            return Err(ParseAagError::BadLine {
                line_number: 0,
                message: String::from("overlong delta encoding"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_aig;

    #[test]
    fn binary_aiger_round_trips() {
        for seed in 0..10 {
            let aig = random_aig(seed, 6, 80, 3).cleanup();
            let mut buf = Vec::new();
            aig.write_aig_binary(&mut buf).expect("write");
            let back = Aig::read_aig_binary(buf.as_slice()).expect("parse");
            assert_eq!(back.num_pis(), aig.num_pis());
            assert_eq!(
                back.simulate_exhaustive(),
                aig.simulate_exhaustive(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn binary_and_ascii_agree() {
        let aig = random_aig(3, 5, 50, 2).cleanup();
        let mut bin = Vec::new();
        let mut asc = Vec::new();
        aig.write_aig_binary(&mut bin).expect("write bin");
        aig.write_aag(&mut asc).expect("write asc");
        let from_bin = Aig::read_aig_binary(bin.as_slice()).expect("bin");
        let from_asc = Aig::read_aag(asc.as_slice()).expect("asc");
        assert_eq!(
            from_bin.simulate_exhaustive(),
            from_asc.simulate_exhaustive()
        );
    }

    #[test]
    fn rejects_hostile_headers_without_allocating() {
        for header in [
            "aig 5 18446744073709551615 0 0 6\n",
            "aig 18446744073709551615 1 0 0 18446744073709551614\n",
            "aig 16777217 16777217 0 0 0\n",
            "aig 3 1 0 0 1\n",
        ] {
            assert!(
                matches!(
                    Aig::read_aig_binary(header.as_bytes()),
                    Err(ParseAagError::BadHeader(_))
                ),
                "{header:?}"
            );
        }
        // A huge output count is read line by line and fails at the end of
        // the stream instead of reserving memory up front.
        assert!(Aig::read_aig_binary("aig 0 0 0 1000000000000000 0\n".as_bytes()).is_err());
        // Gates whose bytes are missing fail the same way.
        assert!(Aig::read_aig_binary("aig 16777216 0 0 0 16777216\n".as_bytes()).is_err());
    }

    #[test]
    fn delta_encoding_round_trips() {
        for v in [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX / 2] {
            let mut buf = Vec::new();
            write_delta(&mut buf, v).expect("write");
            let back = read_delta(&mut buf.as_slice()).expect("read");
            assert_eq!(back, v);
        }
    }

    #[test]
    fn verilog_is_emitted_for_all_interfaces() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let x = aig.xor(a, b);
        aig.add_po(x);
        aig.add_po(Lit::TRUE);
        let mut buf = Vec::new();
        aig.write_verilog(&mut buf, "xor2").expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains("module xor2"));
        assert!(text.contains("input i0;"));
        assert!(text.contains("assign o1 = ~1'b0;"));
        assert!(text.contains("endmodule"));
    }
}
