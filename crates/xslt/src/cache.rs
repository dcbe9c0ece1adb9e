//! Process-wide compiled-stylesheet cache.
//!
//! The generative tool chain applies the same handful of stylesheets
//! (`XMI2CNX`, `CNX2Java`) to many documents — one per portal request, one
//! per batch item. Parsing a stylesheet compiles every XPath expression and
//! match pattern in it, which dwarfs the cost of the transform itself for
//! small inputs. This cache keys compiled stylesheets by their full source
//! text, so repeat transforms share one `Arc<Stylesheet>` (and, through it,
//! one lazily built dispatch index).
//!
//! Keyed by source text rather than a hash: correctness over cleverness —
//! two distinct stylesheets can never alias. The cache holds every distinct
//! stylesheet ever compiled by the process; the tool chain uses a fixed,
//! small set.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::exec::XsltError;
use crate::stylesheet::Stylesheet;

fn cache() -> &'static Mutex<HashMap<String, Arc<Stylesheet>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<Stylesheet>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Parse `src`, or reuse a previous compilation of the identical source.
///
/// Parse errors are not cached: a failing source re-parses (and re-fails)
/// on every call, which keeps error reporting exact and the cache clean.
pub fn compile_cached(src: &str) -> Result<Arc<Stylesheet>, XsltError> {
    if let Some(hit) = cache().lock().unwrap().get(src) {
        return Ok(Arc::clone(hit));
    }
    let compiled = Arc::new(Stylesheet::parse(src)?);
    // Warm the dispatch index while we are off the per-document hot path.
    let _ = compiled.dispatch_index();
    let mut map = cache().lock().unwrap();
    // Racing compilers are harmless: first insert wins, both results are
    // equivalent compilations of the same source.
    let entry = map.entry(src.to_string()).or_insert_with(|| Arc::clone(&compiled));
    Ok(Arc::clone(entry))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
        <xsl:template match="/"><ok/></xsl:template>
    </xsl:stylesheet>"#;

    #[test]
    fn identical_sources_share_one_compilation() {
        let a = compile_cached(SRC).unwrap();
        let b = compile_cached(&String::from(SRC)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn parse_errors_are_reported_not_cached() {
        assert!(compile_cached("<not-a-stylesheet/").is_err());
        assert!(compile_cached("<not-a-stylesheet/").is_err());
    }
}
