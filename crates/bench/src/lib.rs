//! Experiment harness: runs workloads under each configuration and
//! regenerates every table and figure of the paper.
//!
//! The measurement protocol mirrors the paper's (§4): workloads are run
//! repeatedly; the first runs warm up the JIT (methods get compiled, with
//! object inspection seeing live data); measurement then restarts the
//! memory system and takes the *best* of the remaining runs — "the best run
//! times under automatic continuous execution", which excludes JIT
//! compilation time. JIT-time fractions for Figure 11 are taken from the
//! warm-up phase, where compilation actually happens.

pub mod checks;
pub mod cli;
pub mod figures;
pub mod matrix;
pub mod matrix_json;
pub mod runner;

pub use runner::{run_workload, run_workload_traced, Measurement, RunPlan, WorkloadTrace};

/// Writes the artifact `text` to `path`, creating the parent directory if
/// it is missing, and says so on stderr. A binary that gets the error
/// (the I/O error, with the path) must exit non-zero: whoever reads the
/// artifact next would otherwise read a stale file.
pub fn write_artifact(path: &str, text: &str) -> Result<(), String> {
    // The parent of a bare file name is "", which `create_dir_all` accepts.
    let parent = std::path::Path::new(path).parent();
    parent
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("could not write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::write_artifact;

    #[test]
    fn write_artifact_creates_the_parent_and_reports_failure() {
        let dir = std::env::temp_dir().join(format!("spf-artifact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("x.json");
        write_artifact(path.to_str().unwrap(), "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        // A directory is not a writable file.
        let err = write_artifact(dir.to_str().unwrap(), "{}").unwrap_err();
        assert!(err.contains(dir.to_str().unwrap()), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
