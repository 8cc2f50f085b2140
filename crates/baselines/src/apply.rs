//! The write path every baseline shares: each `apply_*` hook is one call
//! on the strategy's [`Store`] plus the footprint record. What
//! distinguishes the schemes is their payload and *when* their checkpoint
//! reads it.

use calc_common::types::Key;
use calc_storage::dual::StoreError;
use calc_storage::{Payload, SlotGuard, SlotId, Store};

use calc_core::strategy::{TxnToken, WriteKind};

/// `apply_write_at`: overwrite the record, resolved once.
pub(crate) fn write<P: Payload>(
    store: &Store<P>,
    token: &mut TxnToken,
    key: Key,
    at: Option<SlotId>,
    value: &[u8],
    old: &mut Vec<u8>,
) -> Result<bool, StoreError> {
    let (slot, had) = store.overwrite(key, at, value, old)?;
    token.record(key, slot, WriteKind::Update);
    Ok(had)
}

/// `apply_insert`: `false` if the key already exists. `fresh_only` skips
/// the free list (Zig-Zag during a capture).
pub(crate) fn insert<P: Payload>(
    store: &Store<P>,
    token: &mut TxnToken,
    key: Key,
    value: &[u8],
    fresh_only: bool,
) -> Result<bool, StoreError> {
    match store.insert_with(key, value, fresh_only, P::Fill::default()) {
        Ok(slot) => {
            token.record(key, slot, WriteKind::Insert);
            Ok(true)
        }
        Err(StoreError::DuplicateKey(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// `apply_delete_at`: delete the record, resolved once, and hand back its
/// slot still locked — the scheme decides when it is freed.
pub(crate) fn delete<'s, P: Payload>(
    store: &'s Store<P>,
    token: &mut TxnToken,
    key: Key,
    at: Option<SlotId>,
    old: &mut Vec<u8>,
) -> Result<SlotGuard<'s, P>, StoreError> {
    let g = store.delete(key, at, old)?;
    token.record(key, g.slot(), WriteKind::Delete);
    Ok(g)
}
