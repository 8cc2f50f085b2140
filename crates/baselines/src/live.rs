//! The write path of the baselines that keep one version per record
//! (Naive, Fuzzy): a [`DualVersionStore`] whose stable side is never
//! touched. What distinguishes those two schemes is only *when* their
//! checkpoint reads the live versions.

use calc_common::types::Key;
use calc_storage::dual::{DualVersionStore, StoreError};
use calc_storage::SlotId;

use calc_core::strategy::{TxnToken, WriteKind};

/// `apply_write_at`: overwrite the live version.
pub(crate) fn write(
    store: &DualVersionStore,
    token: &mut TxnToken,
    key: Key,
    at: Option<SlotId>,
    value: &[u8],
    old: &mut Vec<u8>,
) -> Result<bool, StoreError> {
    let mut g = store
        .locked_slot_at(key, at)
        .ok_or(StoreError::KeyNotFound(key))?;
    let had = g.overwrite_live(value, old);
    token.record(key, g.slot(), WriteKind::Update);
    Ok(had)
}

/// `apply_insert`: `false` if the key already exists.
pub(crate) fn insert(
    store: &DualVersionStore,
    token: &mut TxnToken,
    key: Key,
    value: &[u8],
) -> Result<bool, StoreError> {
    match store.insert(key, value) {
        Ok(slot) => {
            token.record(key, slot, WriteKind::Insert);
            Ok(true)
        }
        Err(StoreError::DuplicateKey(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// `apply_delete_at`: clear the live version and unlink the key under
/// the slot guard; the commit hook reclaims the slot.
pub(crate) fn delete(
    store: &DualVersionStore,
    token: &mut TxnToken,
    key: Key,
    at: Option<SlotId>,
    old: &mut Vec<u8>,
) -> Result<(), StoreError> {
    let mut g = store
        .locked_slot_at(key, at)
        .ok_or(StoreError::KeyNotFound(key))?;
    let live = g.clear_live().ok_or(StoreError::KeyNotFound(key))?;
    old.extend_from_slice(&live);
    store.unlink(key)?;
    token.record(key, g.slot(), WriteKind::Delete);
    Ok(())
}
