//! Process-level plumbing: peak memory from `getrusage`, the benchmark's
//! own scratch directory, and directory sizes.

use std::path::{Path, PathBuf};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads peak memory through the 64-bit Linux `struct rusage` layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s (`ru_utime`,
/// `ru_stime`), then fourteen `long`s starting with `ru_maxrss`.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn maxrss_mb(who: i32) -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` (the layout
    // above is the 64-bit Linux one) and `who` is RUSAGE_SELF or
    // RUSAGE_CHILDREN, both valid; getrusage writes only into `usage`.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage.maxrss_kb as f64 / 1024.0
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_self_mb() -> f64 {
    maxrss_mb(RUSAGE_SELF)
}

/// Peak resident memory of the largest child process waited for so far
/// (the fan-out workers), in MiB; 0 if none.
pub fn peak_rss_children_mb() -> f64 {
    maxrss_mb(RUSAGE_CHILDREN)
}

/// Scratch root owned by one benchmark process, under the working
/// directory.  Removed (recursively) when dropped, which covers normal
/// returns, errors and panics unwinding through `main`.
pub struct ScratchRoot {
    path: PathBuf,
}

/// Directory (relative to the working directory) that holds every
/// benchmark process's scratch root.
pub const SCRATCH_PARENT: &str = ".perfbench-scratch";

impl ScratchRoot {
    pub fn create() -> std::io::Result<ScratchRoot> {
        let path = std::env::current_dir()?
            .join(SCRATCH_PARENT)
            .join(format!("run-{}", std::process::id()));
        if path.exists() {
            // A previous process with the same pid died without cleanup.
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchRoot { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once no other benchmark process is using it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
