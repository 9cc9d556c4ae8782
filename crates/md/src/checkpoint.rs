//! Checkpoint / restart with exact bit-level round trips.
//!
//! Long MD campaigns (the paper's runs are ~10⁴ steps) need restartable
//! state. The format is a plain text header plus one line per particle
//! with every `f64` written as its IEEE-754 bit pattern in hex — so a
//! saved-and-restored trajectory continues **bitwise identically** to an
//! uninterrupted one (tested). No serde dependency: the format is
//! self-contained and greppable.
//!
//! ```text
//! pcdlb-checkpoint v1
//! step <u64> box <hex64> n <count>
//! <id> <x> <y> <z> <vx> <vy> <vz>     # all hex64
//! …
//! ```

use std::io::{self, BufRead, BufWriter, Write};

use crate::vec3::Vec3;
use crate::Particle;

/// A restartable simulation state: particle set + step counter + box.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Steps completed when the checkpoint was taken.
    pub step: u64,
    /// Box side length.
    pub box_len: f64,
    /// Particles, id-sorted.
    pub particles: Vec<Particle>,
}

impl Checkpoint {
    /// Capture a state. Sorts by id to canonicalise.
    pub fn new(step: u64, box_len: f64, mut particles: Vec<Particle>) -> Self {
        particles.sort_unstable_by_key(|p| p.id);
        Self {
            step,
            box_len,
            particles,
        }
    }

    /// Serialise to any writer.
    pub fn write_to(&self, w: impl Write) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        writeln!(w, "pcdlb-checkpoint v1")?;
        writeln!(
            w,
            "step {} box {:016x} n {}",
            self.step,
            self.box_len.to_bits(),
            self.particles.len()
        )?;
        for p in &self.particles {
            writeln!(
                w,
                "{} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x}",
                p.id,
                p.pos.x.to_bits(),
                p.pos.y.to_bits(),
                p.pos.z.to_bits(),
                p.vel.x.to_bits(),
                p.vel.y.to_bits(),
                p.vel.z.to_bits()
            )?;
        }
        w.flush()
    }

    /// Parse from any reader. Errors carry the offending line.
    pub fn read_from(r: impl io::Read) -> io::Result<Self> {
        let mut lines = io::BufReader::new(r).lines();
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let magic = lines.next().ok_or_else(|| bad("empty checkpoint"))??;
        if magic.trim() != "pcdlb-checkpoint v1" {
            return Err(bad(&format!("bad magic line: `{magic}`")));
        }
        let header = lines.next().ok_or_else(|| bad("missing header"))??;
        let h: Vec<&str> = header.split_whitespace().collect();
        if h.len() != 6 || h[0] != "step" || h[2] != "box" || h[4] != "n" {
            return Err(bad(&format!("bad header: `{header}`")));
        }
        let step: u64 = h[1].parse().map_err(|_| bad("bad step"))?;
        let box_len =
            f64::from_bits(u64::from_str_radix(h[3], 16).map_err(|_| bad("bad box bits"))?);
        let n: usize = h[5].parse().map_err(|_| bad("bad count"))?;
        // Consume exactly `n` particle lines (skipping blanks), then stop —
        // embedders (e.g. `pcdlb-sim`'s distributed checkpoint) may append
        // their own sections after the particle block.
        let mut particles = Vec::new();
        while particles.len() < n {
            let line = match lines.next() {
                Some(line) => line?,
                None => {
                    return Err(bad(&format!(
                        "particle count mismatch: header {n}, found {}",
                        particles.len()
                    )))
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 7 {
                return Err(bad(&format!("bad particle line: `{line}`")));
            }
            let id: u64 = f[0].parse().map_err(|_| bad("bad id"))?;
            let mut vals = [0f64; 6];
            for (k, s) in f[1..].iter().enumerate() {
                vals[k] =
                    f64::from_bits(u64::from_str_radix(s, 16).map_err(|_| bad("bad f64 bits"))?);
            }
            particles.push(Particle {
                id,
                pos: Vec3::new(vals[0], vals[1], vals[2]),
                vel: Vec3::new(vals[3], vals[4], vals[5]),
            });
        }
        Ok(Self {
            step,
            box_len,
            particles,
        })
    }

    /// Serialise to an in-memory string (small systems, tests).
    pub fn to_string_repr(&self) -> String {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("in-memory write cannot fail");
        String::from_utf8(buf).expect("checkpoint text is ASCII")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::lj::LennardJones;
    use crate::serial::SerialSim;
    use crate::thermostat::Thermostat;

    fn gas(n: usize, box_len: f64) -> Vec<Particle> {
        let mut ps = init::simple_cubic(n, box_len);
        init::maxwell_boltzmann(&mut ps, 0.722, 7);
        ps
    }

    #[test]
    fn round_trip_is_exact() {
        let ps = gas(100, 12.0);
        let ck = Checkpoint::new(42, 12.0, ps);
        let text = ck.to_string_repr();
        let back = Checkpoint::read_from(text.as_bytes()).expect("parse");
        assert_eq!(ck, back);
    }

    #[test]
    fn round_trip_preserves_awkward_floats() {
        let weird = vec![
            Particle {
                id: 0,
                pos: Vec3::new(0.1 + 0.2, f64::MIN_POSITIVE, 1.0 - f64::EPSILON),
                vel: Vec3::new(-0.0, 1e-300, 9.999999999999999e299),
            },
            Particle::at_rest(1, Vec3::splat(2.0_f64.powi(-40))),
        ];
        let ck = Checkpoint::new(0, 10.0, weird);
        let back = Checkpoint::read_from(ck.to_string_repr().as_bytes()).expect("parse");
        for (a, b) in ck.particles.iter().zip(&back.particles) {
            assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
            assert_eq!(a.vel.x.to_bits(), b.vel.x.to_bits());
            assert_eq!(a.vel.z.to_bits(), b.vel.z.to_bits());
        }
    }

    #[test]
    fn resume_continues_bitwise_identically() {
        let box_len = (150f64 / 0.2).cbrt();
        let ps = gas(150, box_len);
        let lj = LennardJones::paper();
        let th = Thermostat {
            t_ref: 0.722,
            interval: 10,
        };
        // Uninterrupted: 40 steps.
        let mut full = SerialSim::new(ps.clone(), 3, box_len, lj, 0.0025, th);
        for _ in 0..40 {
            full.step();
        }
        // Interrupted: 20 steps, checkpoint, restore, 20 more. The step
        // counter matters because the thermostat fires on absolute steps.
        let mut first = SerialSim::new(ps, 3, box_len, lj, 0.0025, th);
        for _ in 0..20 {
            first.step();
        }
        let ck = Checkpoint::new(first.steps_done(), box_len, first.snapshot());
        let restored = Checkpoint::read_from(ck.to_string_repr().as_bytes()).expect("parse");
        let mut second = SerialSim::new(restored.particles, 3, restored.box_len, lj, 0.0025, th);
        second.resume_at(restored.step);
        for _ in 0..20 {
            second.step();
        }
        let a = full.snapshot();
        let b = second.snapshot();
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.pos == y.pos && x.vel == y.vel,
                "particle {} diverged after resume",
                x.id
            );
        }
    }

    #[test]
    fn trailing_sections_after_the_particle_block_are_ignored() {
        let ps = gas(10, 6.0);
        let ck = Checkpoint::new(7, 6.0, ps);
        let mut text = ck.to_string_repr();
        text.push_str("ownership 1\n0 0 0\nanything else\n");
        let back = Checkpoint::read_from(text.as_bytes()).expect("parse");
        assert_eq!(ck, back);
    }

    #[test]
    fn corrupt_inputs_are_rejected_with_context() {
        assert!(Checkpoint::read_from("".as_bytes()).is_err());
        assert!(Checkpoint::read_from("wrong magic\n".as_bytes()).is_err());
        let bad_count = "pcdlb-checkpoint v1\nstep 0 box 4028000000000000 n 5\n";
        let e = Checkpoint::read_from(bad_count.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("mismatch"), "{e}");
        let bad_line = "pcdlb-checkpoint v1\nstep 0 box 4028000000000000 n 1\n0 zz 0 0 0 0 0\n";
        assert!(Checkpoint::read_from(bad_line.as_bytes()).is_err());
        // A count no file backs is an error, not an allocation of its size.
        for n in ["18446744073709551615", "1000000000000"] {
            let huge = bad_count.replace("n 5", &format!("n {n}"));
            let e = Checkpoint::read_from(huge.as_bytes()).unwrap_err();
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "n {n}: {e}");
        }
    }
}
