//! Checks on the program's outputs, stated as properties of the method
//! (the paper's secrecy guarantees and cost bounds, and the cluster's
//! equivalence with a standalone server), never as copies of today's
//! output. Each returns a reason on failure; the tests below show each
//! one firing on a corrupted input.

use kg_client::Client;
use kg_core::ids::{KeyLabel, KeyRef};
use kg_core::rekey::{Recipients, Strategy};
use kg_crypto::SymmetricKey;
use kg_server::GroupKeyServer;
use kg_wire::{BatchRekeyPacket, DerivedRekeyPacket, RekeyPacket};

/// A group key as the server or a member holds it.
pub type GroupKey = (KeyRef, SymmetricKey);

/// A live member must hold exactly the server's current group key.
pub fn holds_current_key(member: Option<GroupKey>, current: &GroupKey) -> Result<(), String> {
    match member {
        Some(k) if k.0 == current.0 && k.1 == current.1 => Ok(()),
        Some(k) => Err(format!("member holds {:?}, server is at {:?}", k.0, current.0)),
        None => Err("member holds no group key".to_string()),
    }
}

/// A departed member must never again hold the current group key, by
/// reference or by material (forward secrecy).
pub fn excluded_from_current(departed: Option<GroupKey>, current: &GroupKey) -> Result<(), String> {
    match departed {
        Some(k) if k.0 == current.0 || k.1 == current.1 => {
            Err(format!("departed member holds the current group key {:?}", current.0))
        }
        _ => Ok(()),
    }
}

/// A packet with one byte of its signed body flipped must be rejected,
/// and the attempt must leave the member's keyset unchanged. `at` picks
/// the byte. (The body is what the digest or signature covers; the tag's
/// Merkle path index is neither covered nor read by the verifier.)
pub fn tamper_rejected(member: &mut Client, packet: &[u8], at: usize) -> Result<(), String> {
    let body_len = signed_body_len(packet)?;
    let mut bad = packet.to_vec();
    let at = at % body_len;
    bad[at] ^= 0x5a;
    let before = member.keyset();
    let outcome = member.process_packet(&bad);
    if member.keyset() != before {
        return Err(format!("tampered packet (body byte {at}) changed the keyset"));
    }
    match outcome {
        Err(_) => Ok(()),
        Ok(_) => Err(format!("tampered packet (body byte {at}) was accepted")),
    }
}

/// Length of the authenticated prefix of an encoded rekey packet.
fn signed_body_len(packet: &[u8]) -> Result<usize, String> {
    let decoded = if DerivedRekeyPacket::sniff(packet) {
        DerivedRekeyPacket::decode(packet).map(|(_, n)| n)
    } else if BatchRekeyPacket::sniff(packet) {
        BatchRekeyPacket::decode(packet).map(|(_, n)| n)
    } else {
        RekeyPacket::decode(packet).map(|(_, n)| n)
    };
    decoded.map_err(|e| format!("genuine packet does not decode: {e}"))
}

/// Whether a member holding the keys at `labels` is among `to`.
pub fn addressed(to: &Recipients, user: kg_core::ids::UserId, labels: &[KeyLabel]) -> bool {
    match to {
        Recipients::Group => true,
        Recipients::User(u) => *u == user,
        Recipients::Subgroup(l) => labels.contains(l),
        Recipients::SubgroupExcept { include, exclude } => {
            labels.contains(include) && !labels.contains(exclude)
        }
    }
}

/// Table 2 bound on the keys one request encrypts, for a path of `h`
/// keys (the requester's leaf to the root, so `h` is at most the tree
/// height) in a degree-`d` tree. Key- and group-oriented rekeying: a join
/// costs at most 2(h−1), a leave at most d(h−1). User-oriented rekeying
/// re-sends each level's keys to every subtree below it (§3.3), so its
/// bounds are h(h+1)/2 − 1 and (d−1)h(h−1)/2. A derived join seals only
/// the joiner's bundle and is checked by [`derived_join_seals_one`].
pub fn encryptions_within_table2(
    strategy: Strategy,
    join: bool,
    encryptions: u64,
    h: u64,
    d: u64,
) -> Result<(), String> {
    let bound = match (strategy, join) {
        (Strategy::UserOriented, true) => h * (h + 1) / 2 - 1,
        (Strategy::UserOriented, false) => (d - 1) * h * h.saturating_sub(1) / 2,
        (_, true) => 2 * h.saturating_sub(1),
        (_, false) => d * h.saturating_sub(1),
    };
    if encryptions <= bound {
        Ok(())
    } else {
        let op = if join { "join" } else { "leave" };
        Err(format!("{strategy:?} {op} encrypted {encryptions} keys, bound {bound} at h={h} d={d}"))
    }
}

/// A derived join ships exactly one sealed bundle: the joiner's grant.
pub fn derived_join_seals_one(bundles: usize) -> Result<(), String> {
    if bundles == 1 {
        Ok(())
    } else {
        Err(format!("derived join sealed {bundles} bundles, expected 1"))
    }
}

/// A cluster slice must equal a standalone server run of the slice's
/// request sub-stream: same group key, same members.
pub fn slice_matches_reference(
    slice: &GroupKeyServer,
    reference: &GroupKeyServer,
) -> Result<(), String> {
    let (s, r) = (slice.tree().group_key(), reference.tree().group_key());
    if s.0 != r.0 || s.1 != r.1 {
        return Err(format!("slice group key {:?} differs from the reference {:?}", s.0, r.0));
    }
    let mut sm: Vec<_> = slice.tree().members().collect();
    let mut rm: Vec<_> = reference.tree().members().collect();
    sm.sort();
    rm.sort();
    if sm != rm {
        return Err(format!("slice has {} members, the reference {}", sm.len(), rm.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Negative controls: each check passes on a genuine output and fires
    //! on a corrupted one.
    use super::*;
    use kg_client::VerifyPolicy;
    use kg_core::ids::UserId;
    use kg_server::{AccessControl, AuthPolicy, ServerConfig};

    fn server(strategy: Strategy, auth: AuthPolicy, seed: u64) -> GroupKeyServer {
        let config = ServerConfig::builder()
            .strategy(strategy)
            .auth(auth)
            .seed(seed)
            .build()
            .expect("valid config");
        GroupKeyServer::new(config, AccessControl::AllowAll)
    }

    /// A server with `n` members and a synchronised client for the last.
    fn group_with_member(auth: AuthPolicy, n: u64) -> (GroupKeyServer, Client) {
        let mut s = server(Strategy::GroupOriented, auth, 3);
        for i in 0..n - 1 {
            s.handle_join(UserId(i)).unwrap();
        }
        let verify = match s.public_key() {
            Some(key) => {
                VerifyPolicy::RequireSignature { alg: s.config().digest, key: key.clone() }
            }
            None => VerifyPolicy::RequireDigest(s.config().digest),
        };
        let op = s.handle_join(UserId(n - 1)).unwrap();
        let grant = op.join_grant.clone().unwrap();
        let mut c = Client::new(grant.user, s.config().cipher, verify);
        c.install_grant(grant.individual_key, grant.leaf_label, &grant.path_labels);
        for (_, bytes) in op.frames() {
            c.process_packet(bytes).unwrap();
        }
        (s, c)
    }

    #[test]
    fn stale_group_key_is_caught() {
        let (mut s, c) = group_with_member(AuthPolicy::Digest, 8);
        let current = s.tree().group_key();
        holds_current_key(c.group_key(), &current).unwrap();
        // The member misses one rekey: its key is now stale.
        s.handle_leave(UserId(0)).unwrap();
        assert!(holds_current_key(c.group_key(), &s.tree().group_key()).is_err());
        assert!(holds_current_key(None, &current).is_err());
    }

    #[test]
    fn departed_member_with_current_key_is_caught() {
        let (mut s, c) = group_with_member(AuthPolicy::Digest, 8);
        s.handle_leave(c.user()).unwrap();
        excluded_from_current(c.group_key(), &s.tree().group_key()).unwrap();
        // Corrupted: the departed member is handed the current key.
        let leaked = Some(s.tree().group_key());
        assert!(excluded_from_current(leaked, &s.tree().group_key()).is_err());
    }

    #[test]
    fn flipped_byte_in_signed_packet_is_rejected() {
        let (mut s, mut c) = group_with_member(AuthPolicy::SignBatch, 8);
        let op = s.handle_join(UserId(100)).unwrap();
        let (_, bytes) = op.frames().into_iter().find(|(to, _)| *to == Recipients::Group).unwrap();
        for at in 0..signed_body_len(bytes).unwrap() {
            tamper_rejected(&mut c, bytes, at).unwrap();
        }
        // The genuine packet still applies after the rejected attempts.
        c.process_packet(bytes).unwrap();
        holds_current_key(c.group_key(), &s.tree().group_key()).unwrap();
    }

    #[test]
    fn accepted_tampering_is_caught() {
        // Control for the control: a member that checks nothing lets some
        // flipped body byte through (a corrupted IV or ciphertext installs
        // a wrong key), and the check reports it.
        let mut s = server(Strategy::GroupOriented, AuthPolicy::None, 5);
        for i in 0..7 {
            s.handle_join(UserId(i)).unwrap();
        }
        let op = s.handle_join(UserId(7)).unwrap();
        let grant = op.join_grant.clone().unwrap();
        let mut c = Client::new(grant.user, s.config().cipher, VerifyPolicy::Opportunistic);
        c.install_grant(grant.individual_key, grant.leaf_label, &grant.path_labels);
        for (_, bytes) in op.frames() {
            c.process_packet(bytes).unwrap();
        }
        let op = s.handle_leave(UserId(0)).unwrap();
        let (_, bytes) = op.frames().into_iter().find(|(to, _)| *to == Recipients::Group).unwrap();
        let caught = (0..signed_body_len(bytes).unwrap())
            .filter(|&at| tamper_rejected(&mut c.clone(), bytes, at).is_err())
            .count();
        assert!(caught > 0, "no flipped byte got through an unauthenticated member");
    }

    #[test]
    fn encryption_count_above_table2_is_caught() {
        let (h, d) = (7, 4);
        encryptions_within_table2(Strategy::GroupOriented, true, 12, h, d).unwrap();
        assert!(encryptions_within_table2(Strategy::GroupOriented, true, 13, h, d).is_err());
        encryptions_within_table2(Strategy::KeyOriented, false, 24, h, d).unwrap();
        assert!(encryptions_within_table2(Strategy::KeyOriented, false, 25, h, d).is_err());
        encryptions_within_table2(Strategy::UserOriented, true, 27, h, d).unwrap();
        assert!(encryptions_within_table2(Strategy::UserOriented, true, 28, h, d).is_err());
        assert!(derived_join_seals_one(2).is_err());
        derived_join_seals_one(1).unwrap();
    }

    #[test]
    fn slice_key_differing_from_reference_is_caught() {
        let mut a = server(Strategy::GroupOriented, AuthPolicy::None, 11);
        let mut b = server(Strategy::GroupOriented, AuthPolicy::None, 11);
        for i in 0..16 {
            a.handle_join(UserId(i)).unwrap();
            b.handle_join(UserId(i)).unwrap();
        }
        slice_matches_reference(&a, &b).unwrap();
        // Corrupted: the slice rotates its key once more than the reference.
        a.refresh_group_key().unwrap();
        assert!(slice_matches_reference(&a, &b).is_err());
        // A differently seeded reference has other key material.
        let mut c = server(Strategy::GroupOriented, AuthPolicy::None, 12);
        for i in 0..16 {
            c.handle_join(UserId(i)).unwrap();
        }
        assert!(slice_matches_reference(&b, &c).is_err());
    }
}
