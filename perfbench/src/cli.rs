//! Command-line arguments.

use crate::workloads::Kind;

/// `--workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workloads to run, in order (`all` runs every one).
    pub workloads: Vec<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?]
                })
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 60"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok(Args { workloads, seed, seconds, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload small_obj_signed --seed 9 --seconds 5 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![Kind::SmallObjSigned]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 5.0, true));
        assert_eq!(args("--workload all").unwrap().workloads.len(), 3);
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload all --trace 2").is_err());
    }
}
