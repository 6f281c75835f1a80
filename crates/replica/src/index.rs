//! Key columns over a cached query's frozen result.
//!
//! A cached query's frozen result is never edited, and is read far less
//! often than it is built, so a large one gets [`KeyColumns`] instead of
//! the attribute index a stored filter's entries are planned through
//! ([`fbdr_dit::index::Indexes`]): per attribute an unsorted list of each
//! value's position and text, planned by the same rules.

use fbdr_dit::index::{self, Plan};
use fbdr_ldap::{AttrName, Entry, Filter, Predicate};
use std::borrow::Cow;

/// Key columns over a list of entries — a cached query's frozen result:
/// for each attribute a filter names, every value's normalized text with
/// the position of the entry holding it, in list order and unsorted.
///
/// Building them reads each value once and sorts nothing. A scan is
/// answered by testing every key of the attribute's column
/// ([`index::text_key_in`]): on a thousand keys, a pass over two short
/// contiguous lists instead of a verification of a thousand scattered
/// entries. The columns hold no integer keys.
#[derive(Debug, Default)]
pub(crate) struct KeyColumns(Vec<Column>);

/// One attribute's column. The texts lie end to end in one buffer, and
/// each value is its entry's position and where its text ends: a thousand
/// serial numbers are 14 kB, where a [`TextKey`](index::TextKey) per
/// value, 32 B with its position, made 32 kB to write at the build and to
/// read at every scan.
#[derive(Debug)]
struct Column {
    attr: AttrName,
    text: Vec<u8>,
    /// `(position, end of the value's text)`, in list order.
    values: Vec<(u32, u32)>,
}

impl KeyColumns {
    /// The columns of `attrs` over `entries`. An attribute no entry holds
    /// gets none, and so does one whose text outgrows a `u32` offset.
    pub(crate) fn build(attrs: &[&AttrName], entries: &[Entry]) -> Self {
        let column = |attr: &AttrName| -> Option<Column> {
            let mut column = Column { attr: attr.clone(), text: Vec::new(), values: Vec::new() };
            for (pos, e) in entries.iter().enumerate() {
                for v in e.values(attr) {
                    column.text.extend_from_slice(v.normalized().as_bytes());
                    let end = u32::try_from(column.text.len()).ok()?;
                    column.values.push((u32::try_from(pos).ok()?, end));
                }
            }
            (!column.values.is_empty()).then_some(column)
        };
        KeyColumns(attrs.iter().filter_map(|&attr| column(attr)).collect())
    }

    /// Compiles a filter into candidate positions by the shared rules
    /// ([`index::plan`]), as the attribute index compiles it into ids: a
    /// predicate on an attribute without a column, and a numeric bound, do
    /// not plan.
    pub(crate) fn plan(&self, filter: &Filter) -> Option<Plan<'static>> {
        index::plan(filter, &|p| self.lists_for_predicate(p))
    }

    /// The positions whose value the predicate's scan names, ascending and
    /// each once.
    fn lists_for_predicate(&self, p: &Predicate) -> Option<Cow<'static, [u32]>> {
        let scan = index::predicate_scan(p)?;
        let column = self.0.iter().find(|c| &c.attr == p.attr())?;
        let mut positions: Vec<u32> = Vec::new();
        let mut start = 0;
        for &(pos, end) in &column.values {
            let key = &column.text[start..end as usize];
            start = end as usize;
            if index::text_key_in(&scan, key)? && positions.last() != Some(&pos) {
                positions.push(pos);
            }
        }
        Some(Cow::Owned(positions))
    }
}
