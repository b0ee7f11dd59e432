//! A uniquely named scratch directory, removed when dropped.
//!
//! The name comes from a randomly keyed hash of the clock and a
//! process-wide counter, never from the pid alone: two runs in one
//! process, or two processes that reuse a pid, must not share a path.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory that exists until the value drops.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh `<prefix>-<token>` directory under `parent`,
    /// creating `parent` if needed.
    pub fn new_in(parent: &Path, prefix: &str) -> std::io::Result<TempDir> {
        std::fs::create_dir_all(parent)?;
        loop {
            let path = parent.join(format!("{prefix}-{:016x}", unique_token()));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(TempDir { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failed removal while
        // dropping; the directory is under the ignored output tree.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn unique_token() -> u64 {
    let mut hasher = RandomState::new().build_hasher();
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    hasher.write_u128(nanos);
    hasher.write_u64(COUNTER.fetch_add(1, Ordering::Relaxed));
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_and_removed_on_drop() {
        let parent = std::env::temp_dir().join(format!("jmsbench-test-{:x}", unique_token()));
        let a = TempDir::new_in(&parent, "t").expect("create");
        let b = TempDir::new_in(&parent, "t").expect("create");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").expect("write");
        let kept = a.path().to_owned();
        drop(a);
        assert!(!kept.exists());
        drop(b);
        std::fs::remove_dir_all(&parent).expect("parent empty");
    }
}
