module lakeguard/benchmark

go 1.22

require lakeguard v0.0.0

replace lakeguard => ../
